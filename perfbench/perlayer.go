package main

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports zero for it
// (the fleet runs no serve layer, for example); the result's sample
// counts say which ones were measured.
var perLayer = []struct{ name, unit string }{
	{"testbed.build_s", "s"}, {"testbed.attach_s", "s"}, {"core.install_s", "s"},
	{"sim.warmup_s", "s"}, {"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"medium.tx_frames", "count"}, {"medium.deliveries", "count"}, {"medium.corrupted", "count"},
	{"medium.not_listening", "count"}, {"medium.below_sensitivity", "count"},
	{"medium.candidates_per_tx", "count"}, {"medium.ns_per_candidate", "ns"},
	{"mac.sent", "count"}, {"mac.frame_retries", "count"}, {"mac.backoff_retries", "count"},
	{"mac.no_ack", "count"}, {"mac.channel_access_fail", "count"}, {"mac.ack_ratio", "ratio"},
	{"stack.delivered", "count"}, {"stack.filtered_dst", "count"}, {"stack.useful_ratio", "ratio"},
	{"neighbor.beacons", "count"}, {"neighbor.table_fill", "ratio"}, {"neighbor.suspect_marks", "count"},
	{"routing.originated", "count"}, {"routing.forwarded", "count"}, {"routing.dropped_no_route", "count"},
	{"routing.link_repairs", "count"}, {"routing.delivery_ratio", "ratio"},
	{"core.ping1_p50_ms", "ms"}, {"core.pingm_p50_ms", "ms"}, {"core.trace_p50_ms", "ms"},
	{"core.nbr_p50_ms", "ms"}, {"core.radio_p50_ms", "ms"}, {"core.blacklist_p50_ms", "ms"},
	{"core.ping1_fail_ratio", "ratio"}, {"core.pingm_fail_ratio", "ratio"}, {"core.trace_fail_ratio", "ratio"},
	{"core.nbr_fail_ratio", "ratio"}, {"core.radio_fail_ratio", "ratio"}, {"core.blacklist_fail_ratio", "ratio"},
	{"core.host_us_per_sim_ms", "us"}, {"core.sim_ms_per_cmd", "ms"},
	{"diagnose.path_p50_ms", "ms"},
	{"shell.run_p50_ms", "ms"}, {"shell.run_p90_ms", "ms"},
	{"serve.rtt_p50_ms", "ms"}, {"serve.rtt_p90_ms", "ms"},
	{"serve.overhead_p50_ms", "ms"}, {"serve.overhead_p90_ms", "ms"},
	{"serve.edge_retries", "count"}, {"serve.rejected", "count"}, {"serve.tenant_ready_s", "s"},
	{"journal.bytes_per_cmd", "B"}, {"journal.replayed_cmds", "count"}, {"journal.replay_cmds_per_s", "1/s"},
	{"gc.cycles", "count"}, {"gc.pause_ms", "ms"}, {"gc.cpu_fraction", "ratio"}, {"heap_live_mb", "MB"},
}

// completeLayers keeps exactly the listed per-layer metrics, reporting
// zero for each one the workload does not exercise.
func completeLayers(m metrics) {
	keep := map[string]bool{}
	for _, l := range perLayer {
		keep[l.name] = true
		if _, ok := m[l.name]; !ok {
			m.set(l.name, l.unit, 0)
		}
	}
	for name := range m {
		if !keep[name] {
			delete(m, name)
		}
	}
}

package main

import (
	"fmt"
	"time"

	"liteview/internal/core"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

// The lvbench scale experiment's 10k-row configuration at a quarter of
// its size: a shadow-free 50×50 grid at 14 m on the sharded medium with
// one assessment lane (lvbench's default), geographic routing, LiteView,
// a 6 s warm-up and no telemetry recorder. Node density, and so each
// transmission's candidate set, equals the 10k row's; the full 10k row
// spends 25–38 s in set-up per run on a 2-vCPU machine, too long for the
// runs a comparison needs.
const (
	fleetSide    = 50
	fleetSpacing = 14.0
	fleetWarmup  = 6 * time.Second
	fleetLanes   = 1
	// fleetSimMsPerSecond fixes the work of one run: --seconds times this
	// many simulated milliseconds of commands, about --seconds of host
	// time on the recorded machine.
	fleetSimMsPerSecond = 1800
	// fleetBlock is how many consecutive commands (two rounds of the
	// three-command mix) one block of the rate medians holds.
	fleetBlock = 6
)

// runFleet is the fleet-2500 workload.
func runFleet(r *run) error {
	r.phaseCounters = true
	start := time.Now()
	sp := r.tr.begin("setup", -1, -1)
	opt := testbed.DefaultOptions(r.seed)
	opt.ShadowSigma, opt.AsymSigma = 0, 0
	opt.ShardMedium, opt.MediumWorkers = true, fleetLanes
	rc := recipe{
		build: func() (*testbed.Testbed, error) {
			return testbed.Grid(r.fleetSide, r.fleetSide, fleetSpacing, opt)
		},
		attach: func(tb *testbed.Testbed) error { return tb.AttachGeographic(routing.DefaultConfig()) },
		warmup: fleetWarmup,
	}
	stages := map[string][]float64{}
	tb, err := buildStages(r.tr, sp, rc, stages)
	if err != nil {
		return fmt.Errorf("fleet-2500: %w", err)
	}
	for name, v := range stages {
		r.layers.set(name+"_s", "s", v[0])
	}
	ws, err := tb.NewWorkstation(phys.Position{X: -2, Y: -2})
	if err != nil {
		return err
	}
	gc := timedGC()
	r.tr.end(sp, nil)
	r.e2e.set("setup_s", "s", time.Since(start).Seconds())
	r.info["setup_gc_s"] = gc.Seconds()
	r.heapLive()
	base := snapshot(tb)
	base.hashTo(r.digest)

	var candidates uint64
	if r.tr != nil {
		tb.Med.SetDeliveryTap(func(medium.TapDelivery) { candidates++ })
	}

	// Commands: read-only, from the workstation at the corner, for a
	// fixed simulated span. The traceroute goes to the scale row's
	// destination at (42 m, 42 m): three hops from the corner.
	traceDst := phys.NodeID(3*r.fleetSide + 4)
	span := time.Duration(r.seconds) * fleetSimMsPerSecond * time.Millisecond
	end := tb.Eng.Now() + span
	cp := r.tr.begin("commands", -1, -1)
	cmdStart := time.Now()
	for i := 0; tb.Eng.Now() < end; i++ {
		switch i % 3 {
		case 0:
			r.do(tb, cp, "ping1", func() bool {
				out, err := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32})
				return err == nil && out.Received == 1
			})
		case 1:
			r.do(tb, cp, "trace", func() bool {
				out, err := ws.Traceroute(1, core.TrOptions{Dst: traceDst, Length: 32, RouterPort: routing.GeographicPort})
				return err == nil && reached(out)
			})
		case 2:
			r.do(tb, cp, "nbr", func() bool {
				out, err := ws.NeighborList(1, true)
				return err == nil && len(out.Entries) > 0
			})
		}
	}
	host := time.Since(cmdStart)
	d := snapshot(tb).sub(base)
	r.tr.end(cp, &d)
	d.hashTo(r.digest)

	r.info["phase_host_s"] = host.Seconds()
	simSpeed, rate := r.blockRates(r.cmds, cmdStart, fleetBlock)
	r.e2e.set("sim_speed", "sim_s/s", simSpeed)
	r.e2e.set("cmds_per_s", "1/s", rate)
	r.percentiles(r.e2e, "cmd", r.latencies(isCoreKind))
	r.layers.set("core.host_us_per_sim_ms", "us", ratio(float64(host.Microseconds()), float64(d.SimNs)/1e6))
	r.layers.set("core.sim_ms_per_cmd", "ms", ratio(float64(d.SimNs)/1e6, float64(len(r.cmds))))
	kindMedians(r)
	layerMetrics(r.layers, d, host.Nanoseconds(), candidates)
	checkWindow(r)

	// Recovery: crash and reboot the corner's three neighbours in turn;
	// each must refill its table and route to the traceroute destination
	// again. recover_s is the median recovery.
	rp := r.tr.begin("recovery", -1, -1)
	var recs []float64
	for _, n := range []phys.NodeID{2, phys.NodeID(r.fleetSide + 1), phys.NodeID(r.fleetSide + 2)} {
		recs = append(recs, recoverNode(r, tb, ws, n, traceDst, phys.Position{X: -2, Y: -2}).Seconds())
	}
	r.e2e.set("recover_s", "s", median(recs))
	r.tr.end(rp, nil)
	snapshot(tb).hashTo(r.digest)
	return nil
}

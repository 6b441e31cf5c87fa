package main

import (
	"fmt"
	"hash"
	"reflect"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/routing"
	"liteview/internal/stack"
	"liteview/internal/testbed"
)

// counters is one snapshot of every layer's Stats() counters, summed
// over the deployment's nodes. All of it is simulated state, so two runs
// of one seed produce identical snapshots at identical points.
type counters struct {
	SimNs    int64  // sim: virtual clock
	Events   uint64 // sim: events fired
	Medium   medium.Stats
	MAC      mac.Stats
	Stack    stack.Stats
	Routing  routing.Stats
	Beacons  uint64                  // neighbor: beacons sent
	Fill     uint64                  // neighbor: table entries in use
	Capacity uint64                  // neighbor: table capacity
	Est      neighbor.EstimatorStats // neighbor: link estimator
}

// snapshot reads every layer of tb. On thousands of nodes it costs real time, so
// the fleet workload takes it per phase rather than per command.
func snapshot(tb *testbed.Testbed) counters {
	c := counters{SimNs: int64(tb.Eng.Now()), Events: tb.Eng.Fired(), Medium: tb.Med.Stats()}
	for _, n := range tb.Nodes {
		addUints(&c.MAC, n.MAC().Stats())
		addUints(&c.Stack, n.Stack().Stats())
		for _, r := range tb.Routers(n.ID()) {
			addUints(&c.Routing, r.Stats())
		}
		nbr := n.Neighbors()
		c.Beacons += nbr.BeaconsSent()
		c.Fill += uint64(nbr.Table().Len())
		c.Capacity += uint64(nbr.Table().Capacity())
		addUints(&c.Est, nbr.Table().EstimatorStats())
	}
	return c
}

// addUints adds every uint64 field of src to the same field of *dst.
// The layers' Stats structs are flat uint64 counters.
func addUints[T any](dst *T, src T) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}

// sub returns the counter deltas c − base; gauges (table fill and
// capacity) keep c's reading.
func (c counters) sub(base counters) counters {
	out := c
	out.SimNs -= base.SimNs
	out.Events -= base.Events
	subUints(&out.Medium, base.Medium)
	subUints(&out.MAC, base.MAC)
	subUints(&out.Stack, base.Stack)
	subUints(&out.Routing, base.Routing)
	out.Beacons -= base.Beacons
	subUints(&out.Est, base.Est)
	return out
}

// addCounters sums two sets of counter deltas.
func addCounters(a, b counters) counters {
	a.SimNs += b.SimNs
	a.Events += b.Events
	addUints(&a.Medium, b.Medium)
	addUints(&a.MAC, b.MAC)
	addUints(&a.Stack, b.Stack)
	addUints(&a.Routing, b.Routing)
	a.Beacons += b.Beacons
	a.Fill, a.Capacity = b.Fill, b.Capacity
	addUints(&a.Est, b.Est)
	return a
}

func subUints[T any](dst *T, src T) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if f := d.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(f.Uint() - s.Field(i).Uint())
		}
	}
}

// hashTo folds the snapshot into a digest.
func (c counters) hashTo(h hash.Hash) { fmt.Fprintf(h, "%+v\n", c) }

// layerMetrics turns the counters of a measured phase into the
// per-layer counts and ratios of the result. hostNs is the host time the
// phase took, candidates the per-receiver outcomes the medium reported
// over it (0 when no delivery tap was installed).
func layerMetrics(m metrics, d counters, hostNs int64, candidates uint64) {
	m.count("sim.events", float64(d.Events))
	m.set("sim.ns_per_event", "ns", ratio(float64(hostNs), float64(d.Events)))
	m.count("medium.tx_frames", float64(d.Medium.Transmitted))
	m.count("medium.deliveries", float64(d.Medium.Delivered))
	m.count("medium.corrupted", float64(d.Medium.Corrupted))
	m.count("medium.not_listening", float64(d.Medium.MissedNotListening))
	m.count("medium.below_sensitivity", float64(d.Medium.BelowSensitivity))
	m.set("medium.candidates_per_tx", "count", ratio(float64(candidates), float64(d.Medium.Transmitted)))
	m.set("medium.ns_per_candidate", "ns", ratio(float64(hostNs), float64(candidates)))
	m.count("mac.sent", float64(d.MAC.Sent))
	m.count("mac.frame_retries", float64(d.MAC.FrameRetries))
	m.count("mac.backoff_retries", float64(d.MAC.BackoffRetries))
	m.count("mac.no_ack", float64(d.MAC.NoAck))
	m.count("mac.channel_access_fail", float64(d.MAC.ChannelAccess))
	m.set("mac.ack_ratio", "ratio", ratio(float64(d.MAC.AckedOK), float64(d.MAC.AckedOK+d.MAC.NoAck)))
	m.count("stack.delivered", float64(d.Stack.Delivered))
	m.count("stack.filtered_dst", float64(d.Stack.FilteredDst))
	m.set("stack.useful_ratio", "ratio", ratio(float64(d.Stack.Delivered), float64(d.Stack.Delivered+d.Stack.FilteredDst)))
	m.count("neighbor.beacons", float64(d.Beacons))
	m.set("neighbor.table_fill", "ratio", ratio(float64(d.Fill), float64(d.Capacity)))
	m.count("neighbor.suspect_marks", float64(d.Est.SuspectMarks))
	m.count("routing.originated", float64(d.Routing.Originated))
	m.count("routing.forwarded", float64(d.Routing.Forwarded))
	m.count("routing.dropped_no_route", float64(d.Routing.DroppedNoRoute))
	m.count("routing.link_repairs", float64(d.Routing.LinkRepairs))
	m.set("routing.delivery_ratio", "ratio", ratio(float64(d.Routing.Delivered), float64(d.Routing.Originated)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"liteview/internal/core"
	"liteview/internal/diagnose"
	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

// The paper's thirty-mote testbed: a 5×6 grid at 8 m (experiment E1)
// with the propagation model's default shadowing and asymmetry, all four
// routing protocols, LiteView on every node and a 20 s warm-up.
const (
	paperRows    = 5
	paperCols    = 6
	paperSpacing = 8.0
	paperWarmup  = 20 * time.Second
	paperRoot    = phys.NodeID(1) // collection-tree root
	// paperBuilds is how many independent deployments set-up builds;
	// setup_s is their median.
	paperBuilds = 25
	// paperRoundsPerSecond fixes the work of one run: --seconds times
	// this many rounds, about --seconds of host time on the recorded
	// machine. Fixed work keeps every simulated outcome repeatable.
	paperRoundsPerSecond = 100
	// paperPathEvery runs a diagnose.DiagnosePath every this many rounds.
	paperPathEvery = 5
	// paperDrills is how many recovery drills over all nodes a run times.
	paperDrills = 9
	// paperBlock is how many consecutive commands one block of the
	// sim_speed and cmds_per_s medians holds.
	paperBlock = 300
)

// kinds are the LiteView command kinds the per-kind metrics cover.
var kinds = []string{"ping1", "pingm", "trace", "nbr", "radio", "blacklist"}

// trPorts are the routing protocols traceroute rotates over: the three
// with a unicast next hop. Flooding is attached too, but a traceroute
// cannot walk it ("protocol has no unicast next hop").
var trPorts = []byte{routing.GeographicPort, routing.TreePort, routing.OnDemandPort}

// recipe describes a deployment: how to build the testbed, which
// protocols to attach and how long to warm up.
type recipe struct {
	build  func() (*testbed.Testbed, error)
	attach func(*testbed.Testbed) error
	warmup time.Duration
}

// paperRecipe is the paper-30 deployment of one seed.
func paperRecipe(seed uint64) recipe {
	return recipe{
		build: func() (*testbed.Testbed, error) {
			return testbed.Grid(paperRows, paperCols, paperSpacing, testbed.DefaultOptions(seed))
		},
		attach: attachAll,
		warmup: paperWarmup,
	}
}

// buildStages builds, attaches, installs LiteView on and warms up one
// deployment, each stage inside a span under parent, and adds each
// stage's host time to stages.
func buildStages(tr *tracer, parent int, rc recipe, stages map[string][]float64) (*testbed.Testbed, error) {
	var tb *testbed.Testbed
	var err error
	steps := []struct {
		name string
		fn   func() error
	}{
		{"testbed.build", func() error { tb, err = rc.build(); return err }},
		{"testbed.attach", func() error { return rc.attach(tb) }},
		{"core.install", func() error { _, err := tb.InstallLiteView(); return err }},
		{"sim.warmup", func() error { tb.WarmUp(rc.warmup); return nil }},
	}
	for _, st := range steps {
		took := phase(tr, parent, st.name, tb, func() { err = st.fn() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
		stages[st.name] = append(stages[st.name], took.Seconds())
	}
	return tb, nil
}

// phase runs one stage inside a span and returns its host time; with
// tracing on and a testbed built, the span carries the stage's counter
// deltas.
func phase(tr *tracer, parent int, name string, tb *testbed.Testbed, fn func()) time.Duration {
	snap := tr != nil && tb != nil
	var before counters
	if snap {
		before = snapshot(tb)
	}
	sp := tr.begin(name, parent, -1)
	t := time.Now()
	fn()
	took := time.Since(t)
	if snap {
		d := snapshot(tb).sub(before)
		tr.end(sp, &d)
	} else {
		tr.end(sp, nil)
	}
	return took
}

// attachAll attaches the four routing protocols, as lvserved does.
func attachAll(tb *testbed.Testbed) error {
	cfg := routing.DefaultConfig()
	for _, attach := range []func() error{
		func() error { return tb.AttachGeographic(cfg) },
		func() error { return tb.AttachFlooding(cfg) },
		func() error { return tb.AttachTree(paperRoot, cfg) },
		func() error { return tb.AttachOnDemand(cfg) },
	} {
		if err := attach(); err != nil {
			return err
		}
	}
	return nil
}

// gridNode returns the id of the node at (row, col) of a grid.
func gridNode(row, col, cols int) phys.NodeID { return phys.NodeID(row*cols + col + 1) }

// paperTargets picks, for node n, a one-hop neighbour (the adjacent
// node in its row) and a far node (its mirror image across the grid's
// centre, up to two hops away).
func paperTargets(n phys.NodeID) (near, far phys.NodeID) {
	i := int(n) - 1
	row, col := i/paperCols, i%paperCols
	nc := col + 1
	if nc == paperCols {
		nc = col - 1
	}
	return gridNode(row, nc, paperCols), gridNode(paperRows-1-row, paperCols-1-col, paperCols)
}

// traceTarget picks the protocol and destination of node n's traceroute
// on the given pass over the nodes: each pass uses the next protocol, so
// every node is traced over every protocol.
func traceTarget(n phys.NodeID, pass int) (port byte, dst phys.NodeID) {
	port = trPorts[pass%len(trPorts)]
	_, dst = paperTargets(n)
	if port == routing.TreePort {
		// The collection tree only delivers toward its root.
		if n == paperRoot {
			return routing.GeographicPort, dst
		}
		return port, paperRoot
	}
	return port, dst
}

// runPaper30 is the paper-30 workload.
func runPaper30(r *run) error {
	// Set-up: several independent builds of the same seed. Each must
	// land in the same simulated state; setup_s is their median.
	var setups []float64
	var tb *testbed.Testbed
	var ws *core.Workstation
	var setupDigest string
	stages := map[string][]float64{}
	for b := 0; b < paperBuilds; b++ {
		tb, ws = nil, nil // let the previous build's garbage go before timing this one
		timedGC()
		start := time.Now()
		sp := r.tr.begin("setup", -1, -1)
		var err error
		if tb, err = buildStages(r.tr, sp, paperRecipe(r.seed), stages); err != nil {
			return fmt.Errorf("paper-30 build: %w", err)
		}
		if ws, err = tb.NewWorkstation(phys.Position{X: 0, Y: -2}); err != nil {
			return err
		}
		timedGC()
		r.tr.end(sp, nil)
		setups = append(setups, time.Since(start).Seconds())
		got := fmt.Sprintf("%+v", snapshot(tb))
		if b == 0 {
			setupDigest = got
		}
		r.check(got == setupDigest, "build %d of seed %d reached a different simulated state than build 0", b, r.seed)
	}
	r.e2e.set("setup_s", "s", median(setups))
	r.info["setup_builds_s"] = setups
	for name, v := range stages {
		r.layers.set(name+"_s", "s", median(v))
	}
	r.heapLive()
	snapshot(tb).hashTo(r.digest)

	var candidates uint64
	if r.tr != nil {
		tb.Med.SetDeliveryTap(func(medium.TapDelivery) { candidates++ })
	}

	rng := rand.New(rand.NewPCG(r.seed, 0x70617065))
	order := rng.Perm(len(tb.Nodes))
	rounds := r.seconds * paperRoundsPerSecond
	base := snapshot(tb)
	start := time.Now()
	for round := 0; round < rounds; round++ {
		n := phys.NodeID(order[round%len(order)] + 1)
		paperRound(r, tb, ws, n, round)
	}
	host := time.Since(start)
	phase := snapshot(tb).sub(base)
	phase.hashTo(r.digest)

	r.info["phase_host_s"] = host.Seconds()
	simSpeed, rate := r.blockRates(r.cmds, start, paperBlock)
	r.e2e.set("sim_speed", "sim_s/s", simSpeed)
	r.e2e.set("cmds_per_s", "1/s", rate)
	r.percentiles(r.e2e, "cmd", r.latencies(isCoreKind))
	r.layers.set("core.host_us_per_sim_ms", "us", ratio(float64(host.Microseconds()), float64(phase.SimNs)/1e6))
	r.layers.set("core.sim_ms_per_cmd", "ms", ratio(float64(phase.SimNs)/1e6, float64(len(r.cmds))))
	kindMedians(r)
	layerMetrics(r.layers, phase, host.Nanoseconds(), candidates)
	checkWindow(r)

	// Recovery: a drill crashes and reboots every node in turn.
	// recover_s is the median drill's host time.
	var drills []float64
	for d := 0; d < paperDrills; d++ {
		var drill time.Duration
		for _, i := range order {
			n := phys.NodeID(i + 1)
			_, far := paperTargets(n)
			pos := tb.Nodes[i].Position()
			drill += recoverNode(r, tb, ws, n, far, phys.Position{X: pos.X + 1, Y: pos.Y + 1})
		}
		drills = append(drills, drill.Seconds())
	}
	r.e2e.set("recover_s", "s", median(drills))
	r.info["recover_drills_s"] = drills
	snapshot(tb).hashTo(r.digest)
	return nil
}

// kindMedians records the median host latency of each command kind.
func kindMedians(r *run) {
	for _, k := range append([]string{"path"}, kinds...) {
		lat := r.latencies(func(s string) bool { return s == k })
		if len(lat) > 0 {
			r.layers.set(kindSpan(k)+"_p50_ms", "ms", quantile(lat, 0.5))
			r.info[kindSpan(k)+"_samples"] = len(lat)
		}
	}
}

// isCoreKind selects the command mix the end-to-end latency covers.
func isCoreKind(k string) bool { return k != "recover" }

// paperRound runs one round at node n: walk there, then the command
// mix. Every state change is undone before the round ends.
func paperRound(r *run, tb *testbed.Testbed, ws *core.Workstation, n phys.NodeID, round int) {
	node, _ := tb.ByID(n)
	near, far := paperTargets(n)
	pos := node.Position()
	ws.MoveTo(phys.Position{X: pos.X + 1, Y: pos.Y + 1})
	rs := r.tr.begin("round", -1, -1)
	defer r.tr.end(rs, nil)

	r.do(tb, rs, "ping1", func() bool {
		out, err := ws.Ping(n, core.PingOptions{Dst: near, Rounds: 1, Length: 32})
		return err == nil && out.Received == 1
	})
	r.do(tb, rs, "pingm", func() bool {
		out, err := ws.Ping(n, core.PingOptions{Dst: far, Rounds: 1, Length: 32, RouterPort: routing.GeographicPort})
		return err == nil && out.Received == 1
	})
	r.do(tb, rs, "trace", func() bool {
		// Each pass over the nodes uses the next protocol, so every node
		// is traced over every protocol.
		port := trPorts[round/(paperRows*paperCols)%len(trPorts)]
		dst := far
		if port == routing.TreePort {
			// The collection tree only delivers toward its root.
			dst = paperRoot
			if n == paperRoot {
				port = routing.GeographicPort
				dst = far
			}
		}
		out, err := ws.Traceroute(n, core.TrOptions{Dst: dst, Length: 32, RouterPort: port})
		return err == nil && reached(out)
	})
	r.do(tb, rs, "radio", func() bool {
		info, err := ws.RadioGet(n)
		return err == nil && info.Power == 31
	})
	r.do(tb, rs, "radio", func() bool { return ws.SetPower(n, 20) == nil })
	r.do(tb, rs, "radio", func() bool { return ws.SetPower(n, 31) == nil })
	// The blacklist target is the strongest neighbour the node's table
	// lists now.
	target := near
	r.do(tb, rs, "nbr", func() bool {
		out, err := ws.NeighborList(n, true)
		if err != nil || len(out.Entries) == 0 {
			return false
		}
		best := out.Entries[0]
		for _, e := range out.Entries {
			if e.LQI > best.LQI {
				best = e
			}
		}
		target = best.ID
		return true
	})
	r.do(tb, rs, "blacklist", func() bool { return ws.Blacklist(n, target, true) == nil })
	r.do(tb, rs, "blacklist", func() bool { return ws.Blacklist(n, target, false) == nil })
	if round%paperPathEvery == 0 {
		r.do(tb, rs, "path", func() bool {
			rep, err := diagnose.DiagnosePath(ws, diagnose.Target{ID: n, Name: node.Name(), Pos: pos},
				core.TrOptions{Dst: far, Length: 32, RouterPort: routing.GeographicPort})
			return err == nil && len(rep.Findings) == 0 && reached(rep.Traceroute)
		})
	}
}

// reached reports whether a traceroute got to its destination: its last
// hop report is the destination's and was answered. Progress alone is
// not success.
func reached(out *core.TracerouteOutput) bool {
	if out == nil || len(out.Reports) == 0 {
		return false
	}
	last := out.Reports[len(out.Reports)-1]
	return last.Final && !last.Lost
}

// do runs one command, timing it on the host and in simulation. With
// tracing on it records a span, carrying the command's counter deltas
// unless the workload snapshots per phase.
func (r *run) do(tb *testbed.Testbed, parent int, kind string, fn func() bool) {
	var before counters
	perCmd := r.tr != nil && !r.phaseCounters
	if perCmd {
		before = snapshot(tb)
	}
	sp := r.tr.begin(kindSpan(kind), parent, len(r.cmds))
	sim0 := tb.Eng.Now()
	start := time.Now()
	ok := fn()
	end := time.Now()
	host := end.Sub(start)
	simNs := int64(tb.Eng.Now() - sim0)
	if perCmd {
		d := snapshot(tb).sub(before)
		r.tr.end(sp, &d)
	} else {
		r.tr.end(sp, nil)
	}
	r.record(cmdRecord{kind: kind, hostNs: host.Nanoseconds(), simNs: simNs, ok: ok, end: end})
}

// kindSpan names a command's span after the layer it calls into.
func kindSpan(kind string) string {
	switch kind {
	case "path":
		return "diagnose.path"
	case "recover":
		return "core.recover"
	}
	return "core." + kind
}

// checkWindow checks the paper's one-hop response window: single-hop
// ping and neighbor list answer after the 500 ms window (E1's band is
// 490–620 ms of simulated time).
func checkWindow(r *run) {
	for _, k := range []string{"ping1", "nbr"} {
		n := 0
		var lo, hi int64 = 1 << 62, 0
		for _, c := range r.cmds {
			if c.kind != k || !c.ok {
				continue
			}
			n++
			lo, hi = min(lo, c.simNs), max(hi, c.simNs)
		}
		r.check(n > 0, "no successful %s command to check the 500 ms window on", k)
		if n > 0 {
			r.check(lo >= 490e6 && hi <= 620e6, "%s response window %.1f–%.1f ms outside E1's 490–620 ms", k, float64(lo)/1e6, float64(hi)/1e6)
			r.info[k+"_window_ms"] = []float64{float64(lo) / 1e6, float64(hi) / 1e6}
		}
	}
}

// recoverNode walks the workstation to at, crashes and reboots node n,
// lists its neighbours once per command window for one beacon period,
// then pings far from it over geographic routing. The simulated work is
// the same on every seed. The recovery is one operation; it succeeds if
// the table is at least half full again after the beacon period and the
// ping gets its reply. It returns the host time from the crash to the
// ping's answer.
func recoverNode(r *run, tb *testbed.Testbed, ws *core.Workstation, n, far phys.NodeID, at phys.Position) time.Duration {
	node, _ := tb.ByID(n)
	ws.MoveTo(at)
	polls := int(neighbor.DefaultBeaconPeriod / core.ResponseWindow)
	want := node.Neighbors().Table().Capacity() / 2
	var host time.Duration
	r.do(tb, -1, "recover", func() bool {
		start := time.Now()
		defer func() { host = time.Since(start) }()
		node.Crash()
		node.Reboot()
		refilled := false
		for i := 0; i < polls; i++ {
			out, err := ws.NeighborList(n, false)
			refilled = err == nil && len(out.Entries) >= want
		}
		out, err := ws.Ping(n, core.PingOptions{Dst: far, Rounds: 1, Length: 32, RouterPort: routing.GeographicPort})
		return refilled && err == nil && out.Received == 1
	})
	return host
}

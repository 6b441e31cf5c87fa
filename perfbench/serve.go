package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/serve"
	"liteview/internal/shell"
	"liteview/internal/testbed"
)

// serve-journal: an in-process lvserved on loopback, journal on at its
// default fsync batching, two tenants with one closed-loop session each.
const (
	serveTenants = 2
	// serveCyclesPerSecond fixes the work of one run: each session runs
	// --seconds times this many cycles of the shell mix, about --seconds
	// of host time on the recorded machine.
	serveCyclesPerSecond = 80
	// serveBlock is how many consecutive answers one block of the
	// sim_speed and cmds_per_s medians holds.
	serveBlock = 300
	// serveRecoveries is how many journal recoveries a run times.
	serveRecoveries = 3
	// serveSetups is how many independent set-ups a run times.
	serveSetups = 15
	// serveDrain bounds each clean Shutdown.
	serveDrain = 30 * time.Second
)

// serveNodes are the nodes sessions log into: within reach of the
// workstation, which lvserved parks at node 1.
var serveNodes = []phys.NodeID{1, 2, 3, 7, 8, 9, 13, 14, 15}

// benchRunner wraps serve.ShellRunner: it times each Run on the host and
// in simulation, and keeps a fingerprint of the simulation after every
// command so a recovered tenant can be compared with the original.
type benchRunner struct {
	inner  *serve.ShellRunner
	tb     *testbed.Testbed
	tr     *tracer
	tenant int

	// With tracing on: the counter deltas summed over every command, and
	// the per-receiver outcomes the medium reported.
	sum        counters
	candidates uint64

	mu       sync.Mutex
	runs     []runTiming
	fpBefore string // simulation state before the latest command
	fpAfter  string // simulation state after the latest command
}

type runTiming struct{ hostNs, simNs int64 }

func fingerprint(tb *testbed.Testbed) string {
	return fmt.Sprintf("%d/%d/%+v", tb.Eng.Now(), tb.Eng.Fired(), tb.Med.Stats())
}

func (b *benchRunner) Run(line string) (string, error) {
	before := fingerprint(b.tb)
	var c0 counters
	if b.tr != nil {
		c0 = snapshot(b.tb)
	}
	b.mu.Lock()
	sp := b.tr.begin("shell.run", -1, b.tenant<<32|len(b.runs))
	b.mu.Unlock()
	sim0 := b.tb.Eng.Now()
	start := time.Now()
	out, err := b.inner.Run(line)
	host := time.Since(start)
	after := fingerprint(b.tb)
	if b.tr != nil {
		d := snapshot(b.tb).sub(c0)
		b.tr.end(sp, &d)
		b.mu.Lock()
		b.sum = addCounters(b.sum, d)
		b.mu.Unlock()
	}
	b.mu.Lock()
	b.runs = append(b.runs, runTiming{hostNs: host.Nanoseconds(), simNs: int64(b.tb.Eng.Now() - sim0)})
	b.fpBefore, b.fpAfter = before, after
	b.mu.Unlock()
	return out, err
}

func (b *benchRunner) Cwd() string { return b.inner.Cwd() }

// runners tracks every runner a server built, per tenant, in build order.
type runners struct {
	tr  *tracer
	idx map[string]int // tenant name → session index

	mu     sync.Mutex
	by     map[string][]*benchRunner
	stages map[string][]float64 // host time of each tenant build stage
}

func (rs *runners) latest(tenant string) *benchRunner {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	l := rs.by[tenant]
	if len(l) == 0 {
		return nil
	}
	return l[len(l)-1]
}

// newRunner mirrors lvserved's tenant factory for the paper-30
// deployment: all four protocols, LiteView, warm-up, a workstation at
// node 1 and the shell behind a ShellRunner.
func (rs *runners) newRunner(tenant string, seed uint64) (serve.Runner, error) {
	stages := map[string][]float64{}
	tb, err := buildStages(nil, -1, paperRecipe(seed), stages)
	if err != nil {
		return nil, err
	}
	rs.mu.Lock()
	for name, v := range stages {
		rs.stages[name] = append(rs.stages[name], v...)
	}
	rs.mu.Unlock()
	ws, err := tb.NewWorkstation(tb.Node(0).Position())
	if err != nil {
		return nil, err
	}
	sh, err := shell.NewForTestbed(tb, ws, io.Discard)
	if err != nil {
		return nil, err
	}
	inner, err := serve.NewShellRunner(sh)
	if err != nil {
		return nil, err
	}
	b := &benchRunner{inner: inner, tb: tb, tr: rs.tr, tenant: rs.idx[tenant]}
	if rs.tr != nil {
		tb.Med.SetDeliveryTap(func(medium.TapDelivery) { b.candidates++ })
	}
	rs.mu.Lock()
	rs.by[tenant] = append(rs.by[tenant], b)
	rs.mu.Unlock()
	return b, nil
}

// serveLine is one shell line of the session mix and how to judge it.
type serveLine struct {
	kind string
	line string
	ok   func(serve.Response) bool
}

// sessionScript is a tenant's command cycle: log into a node, then the
// paper's commands against it.
func sessionScript(cycle int) []serveLine {
	n := serveNodes[cycle%len(serveNodes)]
	near, far := paperTargets(n)
	port, dst := traceTarget(n, cycle/len(serveNodes))
	noErr := func(r serve.Response) bool { return r.Error == "" }
	received := func(r serve.Response) bool { return r.Error == "" && strings.Contains(r.Output, "Received = 1\n") }
	return []serveLine{
		{"cd", fmt.Sprintf("cd %s", nodeName(n)), noErr},
		{"ping1", fmt.Sprintf("ping %s", nodeName(near)), received},
		{"pingm", fmt.Sprintf("ping %s port=%d", nodeName(far), routing.GeographicPort), received},
		{"trace", fmt.Sprintf("traceroute %s port=%d", nodeName(dst), port), func(r serve.Response) bool {
			return r.Error == "" && strings.Contains(r.Output, "Verdict: destination ") && strings.Contains(r.Output, " reached in ")
		}},
		{"nbr", "neighborsetup list", func(r serve.Response) bool { return r.Error == "" && r.Output != "" }},
		{"stats", "stats", noErr},
		{"ls", "ls", noErr},
	}
}

// nodeName is the testbed's name for node n of the paper-30 grid.
func nodeName(n phys.NodeID) string { return fmt.Sprintf("192.168.0.%d", n) }

// sessionRecord is one command as the client saw it.
type sessionRecord struct {
	kind  string
	rttNs int64
	ok    bool
	end   time.Time
}

// runServe is the serve-journal workload.
func runServe(r *run, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tenants := make([]string, serveTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	rs := &runners{tr: r.tr, idx: map[string]int{}, by: map[string][]*benchRunner{}, stages: map[string][]float64{}}
	for i, t := range tenants {
		rs.idx[t] = i
	}
	cfg := serve.Config{
		NewRunner: rs.newRunner,
		SeedFor:   func(t string) uint64 { return serve.TenantSeed(r.seed, t) },
		// The closed loop measures the service, not its admission policy:
		// the token bucket (50 commands/s per tenant by default) is off.
		RatePerSec: -1,
	}

	// Set-up: from nothing until every tenant answers its first command.
	// Several independent set-ups, each on a fresh journal directory;
	// setup_s is their median and the last one serves the loop.
	var setups, ready []float64
	var srv *serve.Server
	var clients []*serve.Client
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			if err := stopServer(srv, clients); err != nil {
				return err
			}
		}
		cfg.JournalDir = filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		timedGC()
		start := time.Now()
		sp := r.tr.begin("setup", -1, -1)
		var addr string
		srv, addr, err = startServer(cfg)
		if err != nil {
			return err
		}
		var took []float64
		clients, took, err = connectAll(addr, tenants, []string{"/", "/"})
		if err != nil {
			srv.Shutdown(context.Background())
			return fmt.Errorf("serve set-up: %w", err)
		}
		timedGC()
		r.tr.end(sp, nil)
		setups = append(setups, time.Since(start).Seconds())
		ready = append(ready, took...)
	}
	r.e2e.set("setup_s", "s", median(setups))
	r.layers.set("serve.tenant_ready_s", "s", median(ready))
	for name, v := range rs.stages {
		r.layers.set(name+"_s", "s", median(v))
	}
	r.heapLive()

	// The closed loop: one session per tenant, concurrently.
	cycles := r.seconds * serveCyclesPerSecond
	records := make([][]sessionRecord, len(tenants))
	outputs := make([][32]byte, len(tenants))
	cwds := make([]string, len(tenants))
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	loopStart := time.Now()
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			records[i], outputs[i], cwds[i], errs[i] = session(r.tr, i, clients[i], cycles)
		}(i)
	}
	wg.Wait()
	loop := time.Since(loopStart)
	for _, e := range errs {
		if e != nil {
			srv.Shutdown(context.Background())
			return e
		}
	}
	snap := srv.MetricsSnapshot()
	if err := stopServer(srv, clients); err != nil {
		return err
	}

	// Per-command facts: the client's round trip, the runner's host and
	// simulated time (the runner also saw set-up's first command).
	var rtts, runs, overheads []float64
	var simNs int64
	var finals []string
	var layerSum counters
	var candidates uint64
	var runHostNs int64
	for i, t := range tenants {
		b := rs.latest(t)
		timings := b.runs[1:]
		r.check(len(timings) == len(records[i]), "tenant %s ran %d commands, its session sent %d", t, len(timings), len(records[i]))
		if len(timings) != len(records[i]) {
			continue
		}
		for j, rec := range records[i] {
			r.record(cmdRecord{kind: rec.kind, hostNs: rec.rttNs, simNs: timings[j].simNs, ok: rec.ok, end: rec.end})
			rtts = append(rtts, float64(rec.rttNs)/1e6)
			runs = append(runs, float64(timings[j].hostNs)/1e6)
			overheads = append(overheads, float64(rec.rttNs-timings[j].hostNs)/1e6)
			simNs += timings[j].simNs
		}
		layerSum = addCounters(layerSum, b.sum)
		candidates += b.candidates
		for _, tm := range timings {
			runHostNs += tm.hostNs
		}
		r.digest.Write(outputs[i][:])
		fmt.Fprintln(r.digest, b.fpAfter)
		finals = append(finals, b.fpAfter)
	}
	r.info["phase_host_s"] = loop.Seconds()
	simSpeed, rate := r.blockRates(r.cmds, loopStart, serveBlock)
	r.e2e.set("sim_speed", "sim_s/s", simSpeed)
	r.e2e.set("cmds_per_s", "1/s", rate)
	r.percentiles(r.e2e, "cmd", r.latencies(nil))
	for _, v := range [][]float64{rtts, runs, overheads} {
		sort.Float64s(v)
	}
	r.percentiles(r.layers, "serve.rtt", rtts)
	r.percentiles(r.layers, "shell.run", runs)
	r.percentiles(r.layers, "serve.overhead", overheads)
	r.layers.count("serve.edge_retries", snap["serve.edge.retries"])
	rejected := 0.0
	for name, v := range snap {
		if strings.HasPrefix(name, "serve.errors.") && name != "serve.errors.command" {
			rejected += v
		}
	}
	r.layers.count("serve.rejected", rejected)
	r.layers.set("core.sim_ms_per_cmd", "ms", ratio(float64(simNs)/1e6, float64(len(r.cmds))))
	r.layers.set("core.host_us_per_sim_ms", "us", ratio(float64(runHostNs)/1e3, float64(simNs)/1e6))
	kindMedians(r)
	if r.tr != nil {
		r.tr.link("shell.run", "serve.rtt")
		layerMetrics(r.layers, layerSum, runHostNs, candidates)
	}
	jbytes, err := dirBytes(cfg.JournalDir)
	if err != nil {
		return err
	}
	r.layers.set("journal.bytes_per_cmd", "B", ratio(float64(jbytes), float64(len(r.cmds)+len(tenants))))

	// Recovery, several times: a new server on the same journals, until
	// every tenant answers again with the state its original had at
	// shutdown. Each recovery's pwd probes are journaled too; pwd leaves
	// the simulation untouched. recover_s is the median recovery.
	var recs, rates []float64
	for k := 0; k < serveRecoveries; k++ {
		timedGC()
		start := time.Now()
		rp := r.tr.begin("recovery", -1, -1)
		srv2, addr2, err := startServer(cfg)
		if err != nil {
			return err
		}
		restored, err := srv2.RecoverJournals()
		if err != nil {
			srv2.Shutdown(context.Background())
			return fmt.Errorf("recover journals: %w", err)
		}
		clients2, _, err := connectAll(addr2, tenants, cwds)
		if err != nil {
			srv2.Shutdown(context.Background())
			return fmt.Errorf("after recovery: %w", err)
		}
		recs = append(recs, time.Since(start).Seconds())
		r.tr.end(rp, nil)
		snap2 := srv2.MetricsSnapshot()
		if err := stopServer(srv2, clients2); err != nil {
			return err
		}
		r.check(restored == len(tenants), "recovered %d tenants, want %d", restored, len(tenants))
		replayed := snap2["serve.recovery.replayed_commands"]
		want := len(r.cmds) + len(tenants)*(1+k)
		r.check(replayed == float64(want), "recovery %d replayed %.0f journaled commands, want %d", k, replayed, want)
		rates = append(rates, ratio(replayed, snap2["serve.recovery.replay_ms.sum"]/1e3))
		for i, t := range tenants {
			b := rs.latest(t)
			b.mu.Lock()
			got := b.fpBefore
			b.mu.Unlock()
			r.check(got == finals[i], "tenant %s recovered to %s, original ended at %s", t, got, finals[i])
		}
	}
	r.e2e.set("recover_s", "s", median(recs))
	r.info["recoveries_s"] = recs
	r.layers.count("journal.replayed_cmds", float64(len(r.cmds)+len(tenants)))
	r.layers.set("journal.replay_cmds_per_s", "1/s", median(rates))
	return nil
}

// stopServer closes the sessions and drains the server cleanly.
func stopServer(srv *serve.Server, clients []*serve.Client) error {
	for _, c := range clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), serveDrain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("serve shutdown: %w", err)
	}
	return nil
}

// startServer runs a server on a loopback port.
func startServer(cfg serve.Config) (*serve.Server, string, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// connectAll attaches one session per tenant, concurrently, and asks
// each for its working directory, which must read cwds[i]. It returns
// the clients and each tenant's time to answer.
func connectAll(addr string, tenants, cwds []string) ([]*serve.Client, []float64, error) {
	clients := make([]*serve.Client, len(tenants))
	ready := make([]float64, len(tenants))
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for i, t := range tenants {
		wg.Add(1)
		go func(i int, t string) {
			defer wg.Done()
			start := time.Now()
			c, err := serve.Dial(addr, t)
			if err != nil {
				errs[i] = err
				return
			}
			clients[i] = c
			resp, err := c.Run("pwd")
			if err == nil && (resp.Error != "" || strings.TrimSpace(resp.Output) != cwds[i]) {
				err = fmt.Errorf("tenant %s answered pwd with %q (error %q), want %q", t, resp.Output, resp.Error, cwds[i])
			}
			errs[i] = err
			ready[i] = time.Since(start).Seconds()
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, c := range clients {
				if c != nil {
					c.Close()
				}
			}
			return nil, nil, err
		}
	}
	return clients, ready, nil
}

// session runs one tenant's closed loop: the next line goes out only
// after the previous answer is back, and nothing is retried. It returns
// the records, a digest of every output, and the final working directory.
func session(tr *tracer, tenant int, c *serve.Client, cycles int) ([]sessionRecord, [32]byte, string, error) {
	h := sha256.New()
	var recs []sessionRecord
	cwd := "/"
	for cycle := 0; cycle < cycles; cycle++ {
		for _, l := range sessionScript(cycle) {
			sp := tr.begin("serve.rtt", -1, tenant<<32|len(recs))
			start := time.Now()
			resp, err := c.Run(l.line)
			end := time.Now()
			rtt := end.Sub(start)
			tr.end(sp, nil)
			if err != nil {
				var zero [32]byte
				return nil, zero, "", fmt.Errorf("tenant %d: %s: %w", tenant, l.line, err)
			}
			fmt.Fprintf(h, "%s\n%s\n%s\n", l.line, resp.Output, resp.Error)
			recs = append(recs, sessionRecord{kind: l.kind, rttNs: rtt.Nanoseconds(), ok: l.ok(resp), end: end})
			cwd = resp.Cwd
		}
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return recs, sum, cwd, nil
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

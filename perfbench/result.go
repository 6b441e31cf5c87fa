package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one named reading in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
func (m metrics) count(name string, v float64)     { m.set(name, "count", v) }

// cmdRecord is one command as the benchmark saw it: its kind, the host
// time the call took, the simulated time it covered, and its verdict.
type cmdRecord struct {
	kind   string
	hostNs int64
	simNs  int64
	ok     bool
	end    time.Time // when the answer came back
}

// run carries one workload execution: its inputs, the commands it
// issued, the digest of simulated outcomes, the checks it made and the
// metrics it produced.
type run struct {
	workload string
	seed     uint64
	seconds  int
	tr       *tracer // nil when tracing is off
	// phaseCounters snapshots the layers' counters per phase instead of
	// per command (summing thousands of nodes' stats costs real time).
	phaseCounters bool
	// fleetSide is the fleet grid's side; tests shrink it.
	fleetSide int

	cmds   []cmdRecord
	digest hash.Hash
	failed []string // output checks that failed
	info   map[string]any

	e2e    metrics // end-to-end metrics
	layers metrics // per-layer metrics

	mem0 runtime.MemStats
}

func newRun(workload string, seed uint64, seconds int, trace bool) *run {
	r := &run{
		workload: workload, seed: seed, seconds: seconds,
		digest: sha256.New(), info: map[string]any{},
		e2e: metrics{}, layers: metrics{},
		fleetSide: fleetSide,
	}
	if trace {
		r.tr = &tracer{t0: time.Now()}
	}
	runtime.ReadMemStats(&r.mem0)
	return r
}

// check records an output check; a failed check fails the run.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed = append(r.failed, fmt.Sprintf(format, args...))
	}
}

// record adds one command to the run and to the digest. The digest
// takes the simulated facts only: kind, verdict and simulated duration.
func (r *run) record(c cmdRecord) {
	r.cmds = append(r.cmds, c)
	fmt.Fprintf(r.digest, "%s %v %d\n", c.kind, c.ok, c.simNs)
}

func (r *run) attemptedFailed() (int, int) {
	failed := 0
	for _, c := range r.cmds {
		if !c.ok {
			failed++
		}
	}
	return len(r.cmds), failed
}

// latencies returns the sorted host latencies in ms of the commands
// whose kind passes keep (nil keeps all).
func (r *run) latencies(keep func(string) bool) []float64 {
	var out []float64
	for _, c := range r.cmds {
		if keep == nil || keep(c.kind) {
			out = append(out, float64(c.hostNs)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile metrics: the median, and the p90 with the number of samples
// at or beyond it, which the result records beside every percentile.
func (r *run) percentiles(m metrics, prefix string, sorted []float64) {
	if len(sorted) == 0 {
		return
	}
	m.set(prefix+"_p50_ms", "ms", quantile(sorted, 0.5))
	m.set(prefix+"_p90_ms", "ms", quantile(sorted, 0.9))
	r.info[prefix+"_samples"] = len(sorted)
	r.info[prefix+"_p90_beyond"] = beyond(len(sorted), 0.9)
}

// blockRates splits the commands of a measured phase that began at start
// into blocks of size consecutive answers and returns the median block's
// simulated seconds per host second and commands per host second, with
// the number of blocks. Medians over blocks keep a burst of host noise
// in one block from moving the result.
func (r *run) blockRates(cmds []cmdRecord, start time.Time, size int) (simSpeed, cmdsPerS float64) {
	sorted := append([]cmdRecord(nil), cmds...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].end.Before(sorted[j].end) })
	var sims, rates []float64
	prev := start
	for i := 0; i+size <= len(sorted); i += size {
		var simNs int64
		for _, c := range sorted[i : i+size] {
			simNs += c.simNs
		}
		last := sorted[i+size-1].end
		span := last.Sub(prev).Seconds()
		prev = last
		sims = append(sims, float64(simNs)/1e9/span)
		rates = append(rates, float64(size)/span)
	}
	r.info["rate_blocks"] = len(rates)
	r.info["rate_block_cmds"] = size
	return median(sims), median(rates)
}

// quantile interpolates linearly between order statistics.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - 1 - int(math.Floor(q*float64(n-1))) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timedGC forces a collection so that garbage made during set-up is paid
// for inside set-up, and returns how long it took.
func timedGC() time.Duration {
	t := time.Now()
	runtime.GC()
	return time.Since(t)
}

// finish adds the memory metrics of the whole run and each command
// kind's failure share.
func (r *run) finish() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.e2e.set("alloc_mb", "MB", float64(m.TotalAlloc-r.mem0.TotalAlloc)/(1<<20))
	r.e2e.set("peak_rss_mb", "MB", peakRSSMB())
	r.layers.count("gc.cycles", float64(m.NumGC-r.mem0.NumGC))
	r.layers.set("gc.pause_ms", "ms", float64(m.PauseTotalNs-r.mem0.PauseTotalNs)/1e6)
	r.layers.set("gc.cpu_fraction", "ratio", m.GCCPUFraction)
	n, bad := map[string]int{}, map[string]int{}
	for _, c := range r.cmds {
		n[c.kind]++
		if !c.ok {
			bad[c.kind]++
		}
	}
	for _, kind := range kinds {
		r.layers.set("core."+kind+"_fail_ratio", "ratio", ratio(float64(bad[kind]), float64(n[kind])))
	}
	r.info["failed_by_kind"] = bad
}

// heapLive records the live heap after set-up's forced collection.
func (r *run) heapLive() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.layers.set("heap_live_mb", "MB", float64(m.HeapAlloc)/(1<<20))
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// output is the result line's exact shape.
type output struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report prints the run: one line per metric with its unit, the
// environment and sample counts, and last the result line. It returns
// whether every output check passed.
func (r *run) report(w io.Writer, trace bool, env map[string]any) bool {
	r.info["digest"] = hex.EncodeToString(r.digest.Sum(nil))
	for _, f := range r.failed {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
	m := r.e2e
	if trace {
		m = r.layers
		fmt.Fprintln(w, "# end-to-end readings of this traced run (slowed by tracing; the benchmark's figures come from untraced runs):")
		printMetrics(w, "#   ", r.e2e)
	}
	printMetrics(w, "", m)
	info, _ := json.Marshal(map[string]any{"workload": r.workload, "seed": r.seed, "env": env, "samples": r.info})
	fmt.Fprintf(w, "# info %s\n", info)
	attempted, failed := r.attemptedFailed()
	line, _ := json.Marshal(output{Correct: len(r.failed) == 0, Attempted: attempted, Failed: failed, Metrics: m})
	fmt.Fprintln(w, string(line))
	return len(r.failed) == 0
}

func printMetrics(w io.Writer, prefix string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-32s %14.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}

// tracer records benchmark-side spans around each call into a layer.
// Spans stay in memory and are written when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name     string    `json:"name"`
	Start    int64     `json:"start_ns"`
	End      int64     `json:"end_ns"`
	Parent   int       `json:"parent"`
	Cmd      int       `json:"cmd"`
	Counters *counters `json:"counters,omitempty"`
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, cmd int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), End: -1, Parent: parent, Cmd: cmd})
	return len(t.spans) - 1
}

// end closes span i, attaching the counter deltas taken at its boundary.
func (t *tracer) end(i int, c *counters) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.spans[i].Counters = c
}

// selfTimes sums, per span name, the span's duration minus the time its
// children cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// link makes each span named child the child of the span named parent
// that carries the same command id (the two are recorded on different
// goroutines).
func (t *tracer) link(child, parent string) {
	byCmd := map[int]int{}
	for i, s := range t.spans {
		if s.Name == parent {
			byCmd[s.Cmd] = i
		}
	}
	for i, s := range t.spans {
		if p, ok := byCmd[s.Cmd]; ok && s.Name == child {
			t.spans[i].Parent = p
		}
	}
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

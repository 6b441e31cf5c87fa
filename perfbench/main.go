// Command perfbench is LiteView's benchmark. It drives one workload —
// paper-30, fleet-2500 or serve-journal — through the program's public
// packages, checks the simulated outcomes, and prints every metric with
// its unit, the environment and the sample counts, and last one JSON
// result line. Run it through run.py, which builds it from source.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "paper-30, fleet-2500 or serve-journal")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "run length: the fixed work of a run is this many seconds at the calibrated rate")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "commit (or source digest) of the measured code")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "perfbench"), "directory for the journal and the span file")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	workloads := map[string]func(*run) error{
		"paper-30":      runPaper30,
		"fleet-2500":    runFleet,
		"serve-journal": func(r *run) error { return runServe(r, *scratch) },
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newRun(*workload, *seed, *seconds, *trace == 1)
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	r.finish()
	if r.tr != nil {
		completeLayers(r.layers)
		printSelfTimes(r.tr)
		path := filepath.Join(*scratch, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	if !r.report(os.Stdout, r.tr != nil, environment(*seed, *commit)) {
		os.Exit(1)
	}
}

// environment records what the numbers were measured on.
func environment(seed uint64, commit string) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "gogc": gogc, "seed": seed, "commit": commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printSelfTimes prints each span name's self time: its duration minus
// the part its child spans cover.
func printSelfTimes(t *tracer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("# self time per span (s):")
	for _, n := range names {
		fmt.Printf("#   %-24s %10.4f\n", n, self[n])
	}
}

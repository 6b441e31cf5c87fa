package main

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// runSmall runs a workload at reduced size: one second's worth of work
// and, for the fleet, a 20×20 grid.
func runSmall(t *testing.T, workload string, seed uint64) *run {
	t.Helper()
	r := newRun(workload, seed, 1, false)
	r.fleetSide = 20
	var err error
	switch workload {
	case "paper-30":
		err = runPaper30(r)
	case "fleet-2500":
		err = runFleet(r)
	case "serve-journal":
		err = runServe(r, t.TempDir())
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	r.finish()
	if len(r.failed) > 0 {
		t.Fatalf("%s seed %d: output checks failed: %v", workload, seed, r.failed)
	}
	return r
}

// TestDigestDeterminism runs each workload twice under one seed and once
// under another: the same seed must reproduce the digest of simulated
// outcomes, and another seed must change it.
func TestDigestDeterminism(t *testing.T) {
	for _, w := range []string{"paper-30", "fleet-2500", "serve-journal"} {
		t.Run(w, func(t *testing.T) {
			digest := func(seed uint64) string {
				return hex.EncodeToString(runSmall(t, w, seed).digest.Sum(nil))
			}
			a, b, c := digest(1), digest(1), digest(2)
			if a != b {
				t.Errorf("seed 1 gave digests %s and %s", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 gave the same digest %s", a)
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON checks that every workload reports
// exactly the end-to-end metrics BENCHMARK.json names, with their units,
// and that the per-layer list matches too.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"paper-30", "fleet-2500", "serve-journal"} {
		r := runSmall(t, w, 3)
		if got, want := unitsOf(r.e2e), specUnits(spec.EndToEnd); got != want {
			t.Errorf("%s end-to-end metrics\n got %s\nwant %s", w, got, want)
		}
		for name, m := range r.e2e {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", w, name, m.Value)
			}
		}
		completeLayers(r.layers)
		r.layers.set("trace.overhead_ratio", "ratio", 0) // added by run.py
		if got, want := unitsOf(r.layers), specUnits(spec.PerLayer); got != want {
			t.Errorf("%s per-layer metrics\n got %s\nwant %s", w, got, want)
		}
	}
}

func unitsOf(m metrics) string {
	var out []string
	for name, v := range m {
		out = append(out, name+"="+v.Unit)
	}
	sort.Strings(out)
	b, _ := json.Marshal(out)
	return string(b)
}

func specUnits(list []struct{ Name, Unit string }) string {
	m := metrics{}
	for _, l := range list {
		m.set(l.Name, l.Unit, 0)
	}
	return unitsOf(m)
}

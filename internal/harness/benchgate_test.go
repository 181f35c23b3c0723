package harness

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchCyclesMatchBaseline is the bench regression gate: the 24-point
// bench mini-sweep must simulate exactly the cycle count recorded in the
// committed baseline report. Engine rewrites may only change wall-clock
// speed; any sim_cycles drift is a semantics regression. If a PR changes
// simulation semantics intentionally, it must record a new baseline and
// update the reference here alongside the golden results. simbench's
// fig5-mini workload runs the same sweep and checks the same count.
func TestBenchCyclesMatchBaseline(t *testing.T) {
	const baseline = "../../results/BENCH_PR7.json"
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatalf("missing committed bench baseline: %v", err)
	}
	var base struct {
		SimCycles int64 `json:"sim_cycles"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("corrupt bench baseline: %v", err)
	}

	spec := BenchSpec()
	var cycles int64
	for _, w := range spec.WritePcts {
		for _, n := range spec.Threads {
			for _, s := range spec.Schemes {
				r := spec.Point(PointCtx{}, s, n, w, BenchScale)
				cycles += r.Cycles
			}
		}
	}
	if cycles != base.SimCycles {
		t.Fatalf("bench sweep sim_cycles drifted: got %d, want %d (from %s)", cycles, base.SimCycles, baseline)
	}
}

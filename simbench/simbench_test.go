package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hrwle/internal/simlint"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsReportEveryMetric runs every workload at reduced size, both
// measured and traced, and checks that the run is correct and prints every
// metric BENCHMARK.json names, with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, simbench has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			measured := runMeasured(w, 0)
			dir := t.TempDir()
			traced, err := runTraced(w, 2, false, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkTraceFile(t, filepath.Join(dir, "trace-"+name+"-seed2.json"), w.points[0].call)
			for _, res := range []*result{measured, traced} {
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.problems)
				}
			}
			for _, m := range spec.EndToEnd {
				got, ok := measured.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(measured.Metrics) != len(spec.EndToEnd) {
				t.Errorf("measured run prints %d metrics, BENCHMARK.json names %d", len(measured.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(traced.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run prints %d metrics, BENCHMARK.json names %d", len(traced.Metrics), len(spec.PerLayer))
			}
		})
	}
}

// checkTraceFile checks that a traced run wrote point spans named after
// the layer call, with the three phase children, and microbenchmark spans.
func checkTraceFile(t *testing.T, path, call string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{call, call + "/point.setup", call + "/point.populate", call + "/point.simulate", "micro.machine.sync_ns"} {
		if _, ok := doc.SelfMs[name]; !ok {
			t.Errorf("%s: no %q spans (self times %v)", path, name, doc.SelfMs)
		}
	}
	if doc.Overhead <= 0 {
		t.Errorf("%s: trace overhead %v", path, doc.Overhead)
	}
}

// TestFailedPointsAreCounted checks that a point's panic, error or failed
// check is recorded against it and does not end the run.
func TestFailedPointsAreCounted(t *testing.T) {
	w := &workload{
		name: "failing",
		points: []point{
			{name: "panics", run: func(hooks) (*outcome, error) { panic("boom") }},
			{name: "errors", run: func(hooks) (*outcome, error) { return nil, errors.New("bad config") }},
			{name: "wrong", run: func(hooks) (*outcome, error) { return &outcome{problem: "conservation"}, nil }},
			{name: "fine", run: func(hooks) (*outcome, error) { return &outcome{digest: "ok"}, nil }},
		},
		gate: func([]*outcome) []string { return []string{"gate must not run"} },
	}
	it := runIteration(w, false, false)
	if len(it.runs) != 4 || len(it.problems) != 3 {
		t.Fatalf("runs=%d problems=%v, want 4 runs and 3 problems", len(it.runs), it.problems)
	}
	for i, want := range []string{"panic: boom", "bad config", "conservation"} {
		if !strings.Contains(it.problems[i], want) {
			t.Errorf("problem %d = %q, want it to mention %q", i, it.problems[i], want)
		}
	}
	res := newResult()
	res.account(it)
	res.finish()
	if res.Correct || res.Attempted != 4 || res.Failed != 3 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false, 4, 3", res.Correct, res.Attempted, res.Failed)
	}
}

// TestGatesRejectWrongNumbers feeds the full-size gates outcomes that
// differ from the recorded numbers.
func TestGatesRejectWrongNumbers(t *testing.T) {
	fig5 := fig5Mini(true)
	outs := make([]*outcome, len(fig5.points))
	for i := range outs {
		outs[i] = &outcome{cycles: 1}
	}
	if msgs := fig5.gate(outs); len(msgs) != 1 {
		t.Errorf("fig5-mini gate on wrong sim_cycles: %v", msgs)
	}
	chk := checkSanitized(1, true)
	outs = make([]*outcome, len(chk.points))
	for i := range outs {
		outs[i] = &outcome{decisionPoints: 1}
	}
	if msgs := chk.gate(outs); len(msgs) != 1 {
		t.Errorf("check-sanitized gate on wrong decision points: %v", msgs)
	}
	if msgs := checkSanitized(2, true).gate(outs); len(msgs) != 0 {
		t.Errorf("check-sanitized gate pins decision points only at seed 1: %v", msgs)
	}
}

// TestSelfVet runs the repository's simlint suite over this module: the
// point recover must classify the HTM abort signal (abortflow) and the
// microbenchmarks' critical sections must obey txdiscipline.
func TestSelfVet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its dependencies")
	}
	fset, pkgs, err := simlint.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := simlint.NewSuite().Run(fset, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

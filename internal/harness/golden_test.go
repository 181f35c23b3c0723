package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hrwle/internal/machine"
	"hrwle/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure output")

// goldenSpec is a miniature fig5 sweep: small enough to run in CI, rich
// enough to exercise speculation, quiescence and the SGL fallback.
func goldenSpec() *FigureSpec {
	spec := *Registry()["fig5"]
	spec.Threads = []int{2, 4}
	spec.WritePcts = []int{10}
	spec.Schemes = []string{"RW-LE_OPT", "RW-LE_PES", "SGL"}
	return &spec
}

func renderGolden(t *testing.T) ([]byte, []Result) {
	t.Helper()
	spec := goldenSpec()
	results := spec.RunParallel(0.02, nil, 1)
	var buf bytes.Buffer
	Print(&buf, spec, results)
	return buf.Bytes(), results
}

// TestGoldenFigureOutput pins the formatted figure output bit for bit. It
// fails when any change — intended or not — alters simulation results or
// table formatting; regenerate with `go test ./internal/harness -run Golden
// -update` and review the diff.
func TestGoldenFigureOutput(t *testing.T) {
	got, _ := renderGolden(t)
	path := filepath.Join("testdata", "golden_fig5_mini.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("figure output drifted from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestTracingDoesNotChangeResults is the zero-cost guard: the same sweep
// with a Collector observing every machine through PointCtx.Observe must
// print byte-identical output and identical cycle counts. The observed
// sweep runs on a worker pool: each point's observer writes only its own
// slot.
func TestTracingDoesNotChangeResults(t *testing.T) {
	base, baseResults := renderGolden(t)

	spec := goldenSpec()
	installs := make([]int, spec.NumPoints())
	tracedResults := spec.runPoints(0.02, nil, 4, func(i int) PointCtx {
		return PointCtx{Observe: func(m *machine.Machine) {
			installs[i]++
			m.SetTracer(machine.MultiTracer{obs.NewCollector(), &machine.CountTracer{}})
		}}
	})
	var buf bytes.Buffer
	Print(&buf, spec, tracedResults)
	traced := buf.Bytes()

	for i, n := range installs {
		if n != 1 {
			t.Errorf("point %d: observer installed on %d machines, want 1", i, n)
		}
	}
	if !bytes.Equal(base, traced) {
		t.Errorf("tracing changed figure output\n--- untraced ---\n%s\n--- traced ---\n%s", base, traced)
	}
	for i := range baseResults {
		if baseResults[i].Cycles != tracedResults[i].Cycles {
			t.Errorf("point %d: tracing changed virtual time: %d vs %d cycles",
				i, baseResults[i].Cycles, tracedResults[i].Cycles)
		}
	}
}

// TestRunWithMetricsMatchesPlainRun checks that the metrics exporter
// produces the same Results as a plain sweep, writes one valid JSON file
// per scheme, and that a second export is byte-identical (the determinism
// contract of EXPERIMENTS.md).
func TestRunWithMetricsMatchesPlainRun(t *testing.T) {
	spec := goldenSpec()
	plain := spec.RunParallel(0.02, nil, 1)

	export := func(dir string) []Result {
		results, _, err := RunWithMetrics(spec, 0.02, nil, dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	withMetrics := export(dir1)
	export(dir2)

	if len(withMetrics) != len(plain) {
		t.Fatalf("result counts differ: %d vs %d", len(withMetrics), len(plain))
	}
	for i := range plain {
		if plain[i] != withMetrics[i] {
			t.Errorf("point %d differs with metrics enabled: %+v vs %+v", i, plain[i], withMetrics[i])
		}
	}
	for _, scheme := range spec.Schemes {
		name := MetricsFileName(spec.ID, scheme)
		a, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatalf("metrics file missing: %v", err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: repeated export not byte-identical", name)
		}
	}
}

package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestParallelMatchesSerial is the determinism contract of RunParallel:
// the same sweep on a worker pool must return bit-identical Results in the
// same order, and render byte-identical figure output. Only wall-clock
// time may differ.
func TestParallelMatchesSerial(t *testing.T) {
	spec := goldenSpec()
	serial := spec.RunParallel(0.02, nil, 1)
	for _, workers := range []int{2, 4, 16} {
		parallel := spec.RunParallel(0.02, nil, workers)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Errorf("workers=%d point %d: parallel result diverged\nserial:   %+v\nparallel: %+v",
					workers, i, serial[i], parallel[i])
			}
		}
		var a, b bytes.Buffer
		Print(&a, spec, serial)
		Print(&b, spec, parallel)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("workers=%d: printed figure differs from serial output", workers)
		}
	}
}

// TestParallelPoolProgress exercises the pool's shared progress writer —
// primarily food for the race detector (go test -race): concurrent points
// reporting through one writer and one result slice.
func TestParallelPoolProgress(t *testing.T) {
	spec := goldenSpec()
	var progress bytes.Buffer
	results := spec.RunParallel(0.02, &progress, 4)
	if n := bytes.Count(progress.Bytes(), []byte("\n")); n != len(results) {
		t.Errorf("progress lines = %d, want one per point (%d)", n, len(results))
	}
}

// TestParallelPanicPropagates checks that a point panicking inside a
// worker goroutine surfaces on the caller (a worker panic would otherwise
// kill the process with no recovery opportunity).
func TestParallelPanicPropagates(t *testing.T) {
	spec := &FigureSpec{
		ID: "boom", Schemes: []string{"A", "B"}, Threads: []int{1, 2}, WritePcts: []int{10},
		Point: func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
			if scheme == "B" && threads == 2 {
				panic("deadline exceeded (test)")
			}
			return Result{Cycles: 1}
		},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a pooled point did not propagate to the caller")
		}
		if fmt.Sprint(r) != "deadline exceeded (test)" {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	spec.RunParallel(1, nil, 4)
}

// TestParallelMetricsMatchesSerial pins the parallel metrics exporter to
// the serial one: same Results, byte-identical per-scheme JSON files.
func TestParallelMetricsMatchesSerial(t *testing.T) {
	spec := goldenSpec()
	dirS, dirP := t.TempDir(), t.TempDir()

	serial, serialEvents, err := RunWithMetrics(spec, 0.02, nil, dirS, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, parallelEvents, err := RunWithMetrics(spec, 0.02, nil, dirP, 4)
	if err != nil {
		t.Fatal(err)
	}

	for i := range serial {
		if parallel[i] != serial[i] {
			t.Errorf("point %d: parallel metrics run diverged: %+v vs %+v", i, parallel[i], serial[i])
		}
	}
	if serialEvents != parallelEvents {
		t.Errorf("traced event totals differ: serial %d, parallel %d", serialEvents, parallelEvents)
	}
	if serialEvents == 0 {
		t.Error("metrics run traced no events")
	}
	for _, scheme := range spec.Schemes {
		name := MetricsFileName(spec.ID, scheme)
		a, err := os.ReadFile(filepath.Join(dirS, name))
		if err != nil {
			t.Fatalf("serial metrics file missing: %v", err)
		}
		b, err := os.ReadFile(filepath.Join(dirP, name))
		if err != nil {
			t.Fatalf("parallel metrics file missing: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: parallel export differs from serial export", name)
		}
	}
}

// TestBenchSpecShape pins the wall-clock benchmark's sweep definition: the
// recorded numbers in results/BENCH_*.json are only comparable across PRs
// if the sweep itself never drifts.
func TestBenchSpecShape(t *testing.T) {
	spec := BenchSpec()
	if spec.ID != "fig5" {
		t.Errorf("bench sweep figure = %s, want fig5", spec.ID)
	}
	if got, want := spec.NumPoints(), 24; got != want {
		t.Errorf("bench sweep points = %d, want %d", got, want)
	}
	if BenchScale != 0.25 {
		t.Errorf("bench scale = %v, want 0.25", BenchScale)
	}
}

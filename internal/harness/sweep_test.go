package harness

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// failingSweep is a RunIndexed body over n indices that fails at some of
// them: an error at each errAt index, a panic at each panicAt index. Lower
// indices spin longer, so under a pool the higher failures tend to land
// first and the lowest-index rule is what decides the reported failure.
type failingSweep struct {
	n                int
	errAt, panicAt   []int
	started, results []atomic.Int32
}

func newFailingSweep(n int, errAt, panicAt []int) *failingSweep {
	return &failingSweep{
		n: n, errAt: errAt, panicAt: panicAt,
		started: make([]atomic.Int32, n), results: make([]atomic.Int32, n),
	}
}

func sweepErr(i int) error    { return fmt.Errorf("point %d failed", i) }
func sweepPanic(i int) string { return fmt.Sprintf("point %d panicked", i) }

func (s *failingSweep) fn(i int) error {
	s.started[i].Add(1)
	for k := 0; k < (s.n-i)*20; k++ {
		runtime.Gosched()
	}
	for _, p := range s.panicAt {
		if i == p {
			panic(sweepPanic(i))
		}
	}
	for _, e := range s.errAt {
		if i == e {
			return sweepErr(i)
		}
	}
	s.results[i].Store(int32(i * i))
	return nil
}

// run calls RunIndexed and converts a re-raised panic into its value.
func (s *failingSweep) run(workers int) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return RunIndexed(s.n, workers, s.fn, nil), nil
}

// checkStartedPrefix asserts indices were handed out in order (the set of
// started indices is a prefix of [0, n)) and none ran twice.
func (s *failingSweep) checkStartedPrefix(t *testing.T, workers int) {
	t.Helper()
	gap := false
	for i := range s.started {
		switch c := s.started[i].Load(); {
		case c > 1:
			t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
		case c == 0:
			gap = true
		case gap:
			t.Fatalf("workers=%d: index %d started after a lower index was skipped", workers, i)
		}
	}
}

// TestRunIndexedLowestFailureWins is the failure-determinism contract of
// the sweep runner: with two failing and two panicking points, every run
// at every worker count reports the lowest-index failure (the one a
// serial run stops at), and a panic reaches the caller verbatim instead
// of killing a worker goroutine.
func TestRunIndexedLowestFailureWins(t *testing.T) {
	cases := []struct {
		name           string
		errAt, panicAt []int
		wantErr        error
		wantPanic      any
	}{
		{"error lowest", []int{3, 9}, []int{5, 7}, sweepErr(3), nil},
		{"panic lowest", []int{4, 8}, []int{2, 6}, nil, sweepPanic(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				for iter := 0; iter < 50; iter++ {
					s := newFailingSweep(12, tc.errAt, tc.panicAt)
					err, p := s.run(workers)
					if fmt.Sprint(err) != fmt.Sprint(tc.wantErr) || p != tc.wantPanic {
						t.Fatalf("workers=%d iter=%d: got error %v, panic %v; want error %v, panic %v",
							workers, iter, err, p, tc.wantErr, tc.wantPanic)
					}
					s.checkStartedPrefix(t, workers)
				}
			}
		})
	}
}

// TestRunIndexedSerialStopsAtFailure pins "after the first failure no new
// index starts": a serial run stops right at the failing index.
func TestRunIndexedSerialStopsAtFailure(t *testing.T) {
	s := newFailingSweep(10, []int{3}, nil)
	if err, _ := s.run(1); err == nil || err.Error() != sweepErr(3).Error() {
		t.Fatalf("err = %v, want %v", err, sweepErr(3))
	}
	for i := range s.started {
		want := int32(0)
		if i <= 3 {
			want = 1
		}
		if got := s.started[i].Load(); got != want {
			t.Errorf("index %d started %d times, want %d", i, got, want)
		}
	}
}

// TestRunIndexedResultsInOrder covers the clamping edges and the success
// path: n = 0 runs nothing, workers > n and workers < 1 still run every
// index exactly once, results land at their own index, and done is called
// once per index, never concurrently (the race detector checks the plain
// counter).
func TestRunIndexedResultsInOrder(t *testing.T) {
	if err := RunIndexed(0, 4, func(int) error { panic("called with n = 0") }, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	for _, tc := range []struct{ n, workers int }{{3, 8}, {5, -1}, {1, 1}, {17, 4}} {
		s := newFailingSweep(tc.n, nil, nil)
		done := 0
		if err := RunIndexed(tc.n, tc.workers, s.fn, func(int) { done++ }); err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		if done != tc.n {
			t.Errorf("n=%d workers=%d: done called %d times", tc.n, tc.workers, done)
		}
		for i := range s.results {
			if s.started[i].Load() != 1 || s.results[i].Load() != int32(i*i) {
				t.Errorf("n=%d workers=%d: index %d started %d times, result %d",
					tc.n, tc.workers, i, s.started[i].Load(), s.results[i].Load())
			}
		}
	}
}

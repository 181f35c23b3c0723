package harness

import "sync"

// RunIndexed calls fn(i) for every i in [0, n) on a pool of workers
// goroutines (clamped to [1, n]) and is the one place the harness runs
// sweep points concurrently. Indices are handed out in increasing order;
// after the first failure no new index starts, and the pool drains the
// ones already running. A failure is fn returning an error or panicking.
//
// The failure reported is the one with the lowest index, which is the
// failure a serial run (workers = 1) stops at: every lower index was
// handed out earlier and has finished without failing. A lowest-index
// panic is re-raised verbatim on the caller's goroutine; a lowest-index
// error is returned. done, if non-nil, is called after each index that
// succeeds, never concurrently with itself, so completion callbacks such
// as progress lines need no locking of their own.
//
//simlint:allow determinism the sweep pool parallelizes independent points across host cores; each point runs its own machine from a fixed seed and writes only its own index, so results are identical at any worker count
//simlint:allow abortflow the recover turns a point panic into a failure at its index for the caller to re-panic verbatim after the pool drains; the pooled abort signal never reaches it (htm.Thread.Try consumes it inside the simulation)
func RunIndexed(n, workers int, fn func(i int) error, done func(i int)) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)

	var (
		mu        sync.Mutex
		next      int
		failed    = n // lowest failing index so far; n means none
		failErr   error
		failPanic any
	)
	call := func(i int) (err error, p any) {
		defer func() {
			if r := recover(); r != nil {
				p = r
			}
		}()
		if err = fn(i); err == nil && done != nil {
			mu.Lock()
			defer mu.Unlock()
			done(i)
		}
		return err, nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == n || failed < n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				if err, p := call(i); err != nil || p != nil {
					mu.Lock()
					if i < failed {
						failed, failErr, failPanic = i, err, p
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failPanic != nil {
		panic(failPanic)
	}
	return failErr
}

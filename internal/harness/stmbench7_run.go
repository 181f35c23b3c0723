package harness

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
	"hrwle/internal/stats"
	"hrwle/internal/stmbench7"
)

// RunSTMBench7 measures one Fig. 8 point: the 24-operation default mix
// over a medium database, read-only operations under the read lock and
// update operations under the write lock.
func RunSTMBench7(ctx PointCtx, threads, writePct, totalOps int, seed uint64, mk rwlock.Factory) Result {
	cfg := stmbench7.DefaultConfig()
	sys := htm.Take(machine.Config{
		CPUs:     threads,
		MemWords: cfg.MemWords(),
		Seed:     seed,
	}, htm.Config{})
	m := sys.M
	ctx.observe(m)
	lock := mk(sys)
	b := stmbench7.Build(m, cfg)
	mix := stmbench7.NewMix(writePct)

	opsPerThread := totalOps / threads
	if opsPerThread == 0 {
		opsPerThread = 1
	}
	cycles := m.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < opsPerThread; i++ {
			mix.Step(b, lock, th, c)
		}
	})
	r := Result{Cycles: cycles, B: stats.Merge(sys.Stats(threads), cycles)}
	sys.Release()
	return r
}

func stmbench7Figure() *FigureSpec {
	f := &FigureSpec{
		ID:        "fig8",
		Title:     "STMBench7: 24-op default mix, medium DB (throughput)",
		Schemes:   []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "BRLock", "RWL", "SGL"},
		Threads:   []int{2, 4, 8, 16, 32, 64, 80},
		WritePcts: []int{10, 50, 90},
		TimeLabel: "throughput (ops/s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		return RunSTMBench7(ctx, threads, writePct, int(4000*scale),
			uint64(8000+threads*13+writePct), SchemeFactory(scheme))
	}
	return f
}

func init() { registerAppFigure(stmbench7Figure()) }

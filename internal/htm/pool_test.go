package htm_test

import (
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"hrwle/internal/core"
	"hrwle/internal/harness"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/service"
	"hrwle/internal/shard"
)

// pointKind is one kind of point built from a pooled system. run returns
// the point's result as JSON and the machine it ran on.
type pointKind struct {
	name string
	run  func(t *testing.T) (string, *machine.Machine)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// shardPoint is a small adaptive shard point: 8 servers, 4 shards, a
// skewed 4096-key universe.
func shardPoint(t *testing.T) (string, *machine.Machine) {
	cfg := harness.DefaultShardSpec().Base
	cfg.Servers, cfg.Shards, cfg.Requests, cfg.Keys.Universe, cfg.Keys.Skew = 8, 4, 300, 1<<12, 1.2
	var m *machine.Machine
	res, err := shard.Run(cfg, harness.ShardPalette(), func(mm *machine.Machine) { m = mm })
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, res), m
}

// servePoint is a small hashmap serve point at its knee rate.
func servePoint(t *testing.T) (string, *machine.Machine) {
	spec, err := harness.DefaultServeSpec("hashmap")
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Base
	cfg.Servers, cfg.Requests, cfg.Arrivals.RatePerSec = 6, 300, spec.Rates[3]
	var m *machine.Machine
	res, _, err := service.RunPoint(cfg, "RW-LE_OPT", harness.SchemeFactory("RW-LE_OPT"), func(mm *machine.Machine) { m = mm })
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, res), m
}

// hashmapPoint is a closed-loop sensitivity point of the given thread
// count and bucket count, under paging.
func hashmapPoint(threads int, buckets int64) func(t *testing.T) (string, *machine.Machine) {
	return func(t *testing.T) (string, *machine.Machine) {
		var m *machine.Machine
		ctx := harness.PointCtx{Observe: func(mm *machine.Machine) { m = mm }}
		res := harness.RunHashmap(ctx, harness.HashmapParams{
			Buckets: buckets, Items: 8, WritePct: 20, Threads: threads, TotalOps: 2000, Seed: 3,
			Paging: machine.PagingConfig{Enabled: true, ResidentLimit: 64, InterruptMean: 20000},
		}, harness.SchemeFactory("RW-LE_OPT"))
		return mustJSON(t, res), m
	}
}

// TestPooledPointsMatchEmptyPool checks that a shard, a serve and a
// hashmap point, each run right after a point of another, larger shape on
// the system that point released, give the same result as on an empty
// pool.
func TestPooledPointsMatchEmptyPool(t *testing.T) {
	for _, tc := range []struct{ point, before pointKind }{
		{pointKind{"shard", shardPoint}, pointKind{"hashmap", hashmapPoint(16, 1<<13)}},
		{pointKind{"serve", servePoint}, pointKind{"hashmap", hashmapPoint(16, 1<<13)}},
		{pointKind{"hashmap", hashmapPoint(4, 1<<9)}, pointKind{"shard", shardPoint}},
	} {
		t.Run(tc.point.name, func(t *testing.T) {
			htm.DrainPool()
			want, _ := tc.point.run(t)
			htm.DrainPool()
			_, prev := tc.before.run(t)
			got, m := tc.point.run(t)
			if m != prev {
				t.Fatalf("the %s point did not reuse the system the %s point released", tc.point.name, tc.before.name)
			}
			if got != want {
				t.Errorf("after a %s point, the %s point's result differs from an empty pool's:\n got %s\nwant %s", tc.before.name, tc.point.name, got, want)
			}
		})
	}
}

// TestPoolBoundUnderParallelSweep checks that a RunIndexed sweep on 4
// workers, whose points ask for systems of changing shapes, never holds
// more than 4 systems in use and idle together, and leaves at most 4 idle.
func TestPoolBoundUnderParallelSweep(t *testing.T) {
	htm.DrainPool()
	const workers = 4
	var inUse, peak atomic.Int64
	shapes := []machine.Config{
		{CPUs: 2, MemWords: 1 << 12}, {CPUs: 4, MemWords: 1 << 14}, {CPUs: 1, MemWords: 1 << 10},
		{CPUs: 3, MemWords: 1 << 13}, {CPUs: 70, MemWords: 1 << 12}, {CPUs: 8, MemWords: 1 << 15},
	}
	err := harness.RunIndexed(60, workers, func(i int) error {
		s := htm.Take(shapes[i*7%len(shapes)], htm.Config{})
		// inUse counts s only between Take and Release, so inUse + idle
		// never counts a system twice.
		held := inUse.Add(1) + int64(htm.IdleSystems())
		for p := peak.Load(); held > p && !peak.CompareAndSwap(p, held); p = peak.Load() {
		}
		s.M.Run(s.M.Cfg.CPUs, func(c *machine.CPU) { c.Write(s.M.AllocRaw(1), 1) })
		inUse.Add(-1)
		s.Release()
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("the sweep held %d systems at once, want at most %d", p, workers)
	}
	if n := htm.IdleSystems(); n > workers {
		t.Errorf("the pool kept %d idle systems, want at most %d", n, workers)
	}
}

// TestPoolAfterLivelock checks that a point that panics out of its
// simulation (RW-LE_basic's capacity livelock on tpcc) leaks neither a
// system nor pool accounting: a normal point after it still leaves one
// system held.
func TestPoolAfterLivelock(t *testing.T) {
	spec, err := harness.DefaultServeSpec("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	spec.Base.Servers, spec.Base.Requests = 4, 150
	spec.Rates = spec.Rates[3:4]
	htm.DrainPool()
	spec.Schemes = []string{"RW-LE_basic"}
	var le *core.LivelockError
	if _, err := harness.RunServe(spec, 1, nil); !errors.As(err, &le) {
		t.Fatalf("RW-LE_basic tpcc point: error %v, want the capacity livelock", err)
	}
	spec.Schemes = []string{"RW-LE_OPT"}
	if _, err := harness.RunServe(spec, 1, nil); err != nil {
		t.Fatal(err)
	}
	if n := htm.IdleSystems(); n != 1 {
		t.Errorf("after a livelocked and a normal point the pool holds %d idle systems, want 1", n)
	}
}

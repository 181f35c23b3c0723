package main

import (
	"flag"
	"testing"
	"time"

	"hrwle/internal/harness"
	"hrwle/internal/hashmap"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/service"
	"hrwle/internal/stats"
)

// microSizes are the layer microbenchmarks' input sizes. At full size
// they match one shard-knee point: a 2M-key universe, a 64-CPU machine of
// 2^25 words, and one of its 16 shards populated 8 items deep.
type microSizes struct {
	benchtime    string
	zipfUniverse int
	machineWords int64
	shardBuckets int64
	shardItems   int64
	schedule     service.Config
}

func microSizesFor(full bool) microSizes {
	cfg := harness.DefaultShardSpec().Base
	ms := microSizes{
		benchtime:    "200ms",
		zipfUniverse: cfg.Keys.Universe,
		machineWords: 1 << 25,
		shardBuckets: int64(cfg.Keys.Universe) / 16 / cfg.ItemsPerBucket,
		shardItems:   cfg.ItemsPerBucket,
	}
	if !full {
		ms.benchtime = "2ms"
		ms.zipfUniverse = 1 << 12
		ms.machineWords = 1 << 16
		ms.shardBuckets = 1 << 7
		cfg.Requests = 200
	}
	// Keyed demand off: the per-request draws only; the Zipf table has its
	// own row.
	cfg.Keys = service.KeyConfig{}
	ms.schedule = cfg.Config
	return ms
}

// microResult is one microbenchmark's outcome, already divided down to
// the metric's unit of work.
type microResult struct {
	name       string
	value      float64
	unit       string
	start, end time.Time
}

// sinks keep the compiler from discarding measured results.
var (
	sinkU64  uint64
	sinkAny  any
	sinkBool bool
)

// runMicro times every layer microbenchmark with testing.Benchmark.
func runMicro(full bool) ([]microResult, error) {
	ms := microSizesFor(full)
	testing.Init()
	if err := flag.Set("test.benchtime", ms.benchtime); err != nil {
		return nil, err
	}
	var out []microResult
	// per runs f and reports its time per op divided by div, in unit.
	per := func(name, unit string, div float64, f func(b *testing.B)) testing.BenchmarkResult {
		start := time.Now()
		res := testing.Benchmark(f)
		scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
		out = append(out, microResult{
			name:  name,
			value: float64(res.T.Nanoseconds()) / float64(res.N) / div / scale,
			unit:  unit,
			start: start,
			end:   time.Now(),
		})
		return res
	}
	allocs := func(name string, res testing.BenchmarkResult) {
		at := out[len(out)-1].end
		out = append(out, microResult{name: name, value: float64(res.MemAllocs) / float64(res.N), unit: "count", start: at, end: at})
	}

	// Set-up layers, at shard-knee sizes.
	per("service.zipf_ms", "ms", 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkAny = service.NewZipf(ms.zipfUniverse, 1.2)
		}
	})
	per("service.schedule_ns_per_req", "ns", float64(ms.schedule.Requests), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reqs, err := service.GenerateSchedule(ms.schedule)
			if err != nil {
				b.Fatal(err)
			}
			sinkAny = reqs
		}
	})
	per("machine.new_ms", "ms", 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkAny = machine.New(machine.Config{CPUs: 64, MemWords: ms.machineWords})
		}
	})
	items := ms.shardBuckets * ms.shardItems
	per("hashmap.populate_ns_per_item", "ns", float64(items), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := machine.New(machine.Config{CPUs: 1, MemWords: items*16 + ms.shardBuckets + 1<<12})
			b.StartTimer()
			hashmap.New(m, ms.shardBuckets).Populate(ms.shardItems)
		}
	})

	// Engine.
	per("machine.sync_ns", "ns", 1, benchSync)
	per("machine.park_ns", "ns", 1, benchPark)
	per("machine.await_step_ns", "ns", 1, benchAwaitStep)

	// HTM, in Setup mode on one CPU: no timing model, no scheduling.
	per("htm.load_ns", "ns", htmAccessesPerTx, func(b *testing.B) { benchHTM(b, htmLoads) })
	per("htm.store_ns", "ns", htmAccessesPerTx, func(b *testing.B) { benchHTM(b, htmStores) })
	allocs("htm.commit_allocs", per("htm.commit_ns", "ns", 1, func(b *testing.B) { benchHTM(b, htmCommit) }))
	allocs("htm.abort_allocs", per("htm.abort_ns", "ns", 1, func(b *testing.B) { benchHTM(b, htmAbort) }))

	// Lock entry and exit around a one-word critical section.
	for _, s := range []string{"RW-LE_OPT", "HLE", "SGL"} {
		per("rwlock.read_cs_ns."+s, "ns", 1, func(b *testing.B) { benchCS(b, s, false) })
		per("rwlock.write_cs_ns."+s, "ns", 1, func(b *testing.B) { benchCS(b, s, true) })
	}

	// Data structure, in Setup mode.
	per("hashmap.lookup_ns", "ns", 1, func(b *testing.B) { benchHashmap(b, false) })
	per("hashmap.insert_ns", "ns", 1, func(b *testing.B) { benchHashmap(b, true) })
	return out, nil
}

// benchDeadline keeps long microbenchmark runs clear of the livelock
// deadline.
const benchDeadline = 1 << 62

// benchSync times Sync on its fast path: a lone CPU stays the minimum.
func benchSync(b *testing.B) {
	m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 12, Seed: 1, Deadline: benchDeadline})
	b.ResetTimer()
	m.Run(1, func(c *machine.CPU) {
		for i := 0; i < b.N; i++ {
			c.Tick(1)
			c.Sync()
		}
	})
}

// benchPark times one park/resume handoff: two CPUs leapfrog each other,
// so every Sync parks.
func benchPark(b *testing.B) {
	m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 12, Seed: 1, Deadline: benchDeadline})
	iters := b.N/2 + 1
	b.ResetTimer()
	m.Run(2, func(c *machine.CPU) {
		for i := 0; i < iters; i++ {
			c.Tick(1)
			c.Sync()
		}
	})
}

// countdown is a waiter that finishes after a fixed number of steps.
type countdown struct{ left int }

func (w *countdown) Step(c *machine.CPU) bool {
	c.Tick(1)
	w.left--
	return w.left <= 0
}

// benchAwaitStep times one engine-stepped waiter step: CPU 0 waits while
// CPU 1's slow-path Syncs step its waiter inline, without coroutine
// switches.
func benchAwaitStep(b *testing.B) {
	m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 12, Seed: 1, Deadline: benchDeadline})
	b.ResetTimer()
	m.Run(2, func(c *machine.CPU) {
		if c.ID == 0 {
			c.Await(&countdown{left: b.N})
			return
		}
		for i := 0; i < b.N; i++ {
			c.Tick(1)
			c.Sync()
		}
	})
}

// htmAccessesPerTx is the number of loads or stores in one load or store
// microbenchmark transaction; the reported time is per access.
const htmAccessesPerTx = 64

type htmBody int

const (
	htmLoads htmBody = iota
	htmStores
	htmCommit
	htmAbort
)

// benchHTM times one transaction per op in Setup mode, after a warm-up
// transaction so one-time growth is excluded.
func benchHTM(b *testing.B, body htmBody) {
	m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 16})
	sys := htm.NewSystem(m, htm.Config{})
	th := sys.Thread(0)
	var base machine.Addr
	m.Setup(func(*machine.CPU) { base = th.AllocAligned(8 * 16) })
	var fn func()
	switch body {
	case htmLoads:
		fn = func() {
			var acc uint64
			for i := 0; i < htmAccessesPerTx; i++ {
				acc += th.Load(base + machine.Addr(i%8*16))
			}
			sinkU64 = acc
		}
	case htmStores:
		fn = func() {
			for i := 0; i < htmAccessesPerTx; i++ {
				th.Store(base+machine.Addr(i%8*16), uint64(i))
			}
		}
	case htmCommit:
		fn = func() {
			for i := 0; i < 8; i++ {
				a := base + machine.Addr(i)
				th.Store(a, th.Load(a)+1)
			}
		}
	case htmAbort:
		fn = func() {
			th.Store(base, 1)
			th.Abort(stats.AbortExplicit)
		}
	}
	tx := func(*machine.CPU) { th.Try(false, fn) }
	m.Setup(tx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Setup(tx)
	}
}

// benchCS times one critical section's entry and exit under scheme on a
// 2-CPU machine, CPU 0 running alone (no contention, but the lock sized
// and scanned for two threads).
func benchCS(b *testing.B, scheme string, write bool) {
	m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 16, Seed: 1, Deadline: benchDeadline})
	sys := htm.NewSystem(m, htm.Config{})
	lock := harness.SchemeFactory(scheme)(sys)
	th := sys.Thread(0)
	var a machine.Addr
	m.Setup(func(*machine.CPU) { a = th.AllocAligned(16) })
	readCS := func() { sinkU64 = th.Load(a) }
	writeCS := func() { th.Store(a, th.Load(a)+1) }
	b.ResetTimer()
	m.Run(1, func(*machine.CPU) {
		for i := 0; i < b.N; i++ {
			if write {
				lock.Write(th, writeCS)
			} else {
				lock.Read(th, readCS)
			}
		}
	})
}

// benchHashmap times one lookup, or one in-place update of an existing
// key, on a populated map in Setup mode.
func benchHashmap(b *testing.B, update bool) {
	const buckets, depth = 1 << 12, 8
	m := machine.New(machine.Config{CPUs: 1, MemWords: buckets*depth*16*2 + buckets + 1<<12})
	sys := htm.NewSystem(m, htm.Config{})
	th := sys.Thread(0)
	h := hashmap.New(m, buckets)
	h.Populate(depth)
	var node machine.Addr
	m.Setup(func(*machine.CPU) { node = h.PrepareNode(th) })
	b.ResetTimer()
	m.Setup(func(*machine.CPU) {
		for i := 0; i < b.N; i++ {
			key := uint64(i*7919) % (buckets * depth)
			if update {
				sinkBool = h.Insert(th, key, uint64(i), node)
			} else {
				sinkU64, sinkBool = h.Lookup(th, key)
			}
		}
	})
}

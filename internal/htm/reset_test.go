package htm

import (
	"fmt"
	"reflect"
	"testing"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// resetSysConfig pages with a small residency limit and delivers timer
// interrupts, so transactions are also doomed by the environment.
func resetSysConfig(cpus int) machine.Config {
	return machine.Config{
		CPUs: cpus, MemWords: 1 << 14, Seed: 5,
		Paging: machine.PagingConfig{Enabled: true, PageWords: 128, ResidentLimit: 4, TLBEntries: 4, InterruptMean: 4000},
	}
}

// sysRun is everything a run of sysProgram makes observable.
type sysRun struct {
	cycles   int64
	events   []machine.Event
	words    []uint64
	stats    []stats.Thread
	counters []machine.Counters
}

// sysProgram allocates its memory in setup, then runs every CPU through
// HTM and ROT transactions on shared lines (conflicts, dooms), explicit
// and capacity aborts, suspend/resume with non-transactional stores in the
// window, CAS, and allocations freed again, with HTM-level accesses
// traced.
func sysProgram(s *System) sysRun {
	m := s.M
	lw := machine.Addr(m.Cfg.LineWords)
	shared := m.AllocRawAligned(4 * int64(lw))
	fill := m.AllocRawAligned(int64(s.Cfg.WriteCapLines+1) * int64(lw))
	s.SetTraceAccesses(true)
	var log machine.LogTracer
	m.SetTracer(&log)
	n := m.Cfg.CPUs
	cycles := m.Run(n, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		for i := 0; i < 30; i++ {
			a := shared + machine.Addr(c.Intn(4))*lw
			b := shared + machine.Addr(c.Intn(4))*lw
			switch c.Intn(7) {
			case 0:
				th.Try(false, func() { th.Store(a, th.Load(b)+1) })
			case 1:
				th.Try(true, func() { th.Store(a, th.LoadStream(b)+1) })
			case 2:
				th.Try(false, func() {
					th.Store(a, 7)
					th.Abort(stats.AbortExplicit)
				})
			case 3:
				th.Try(false, func() {
					for j := machine.Addr(0); j <= machine.Addr(s.Cfg.WriteCapLines); j++ {
						th.Store(fill+j*lw, uint64(i))
					}
				})
			case 4:
				th.Try(false, func() {
					th.Load(a)
					th.Suspend()
					th.NonTxStore(b, uint64(c.ID))
					c.Work(200)
					th.Resume()
				})
			case 5:
				th.CAS(a, th.Load(a), uint64(i))
			case 6:
				blk := th.Alloc(8)
				th.Store(blk, uint64(c.ID)+1)
				th.Free(blk, 8)
			}
			c.Work(int64(c.Intn(100)))
		}
	})
	r := sysRun{cycles: cycles, events: log.Events}
	for a := machine.Addr(0); a < machine.Addr(m.Cfg.MemWords); a++ {
		r.words = append(r.words, m.Peek(a))
	}
	for i := 0; i < n; i++ {
		r.stats = append(r.stats, s.Thread(i).St)
		r.counters = append(r.counters, m.CPU(i).Counters)
	}
	return r
}

// TestSystemResetMatchesNew checks that a system reset after a run with
// transactions, aborts, allocations and paging, with a transaction left
// in flight, reproduces a new system on a new machine: the same run gives
// the same event stream, memory words, thread statistics and CPU
// counters. 66 CPUs covers the directory's side-table reader bits.
func TestSystemResetMatchesNew(t *testing.T) {
	for _, cpus := range []int{4, 66} {
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			cfg := resetSysConfig(cpus)
			want := sysProgram(NewSystem(machine.New(cfg), Config{}))
			var aborts int64
			for _, st := range want.stats {
				aborts += st.Aborts[stats.AbortCapacity] + st.Aborts[stats.AbortExplicit]
			}
			// Dooms by the environment, keyed by the event that caused them
			// (the CPU's previous event), prove both HTM hooks are bound.
			envDooms := map[machine.EventKind]int{}
			last := map[int]machine.EventKind{}
			for _, e := range want.events {
				if e.Kind == machine.EvTxDoom {
					envDooms[last[e.CPU]]++
				}
				last[e.CPU] = e.Kind
			}
			if aborts == 0 || envDooms[machine.EvPageFault] == 0 || envDooms[machine.EvInterrupt] == 0 {
				t.Fatalf("program took %d capacity or explicit aborts, %d page-fault and %d interrupt dooms, want some of each",
					aborts, envDooms[machine.EvPageFault], envDooms[machine.EvInterrupt])
			}

			s := NewSystem(machine.New(cfg), Config{})
			sysProgram(s)
			// Leave a transaction in flight on the highest CPU, as a body
			// that began one and returned without committing would: its
			// directory entries and thread state survive the run.
			lw := machine.Addr(s.M.Cfg.LineWords)
			a := s.M.AllocRawAligned(2 * int64(lw))
			th, line := s.Thread(cpus-1), s.M.LineOf(a)
			th.mode = ModeHTM
			s.addReader(line, th.C.ID)
			th.readLines = append(th.readLines, line)
			s.dir[line+1].writer = th
			th.writeLines = append(th.writeLines, line+1)
			th.ws.put(a+lw, 1)
			s.Reset()
			if s.TraceAccesses() {
				t.Error("Reset left access tracing on")
			}
			for line, e := range s.dir {
				if e != (dirEntry{}) || (s.wideReaders != nil && s.wideReaders[line] != machine.WideBits{}) {
					t.Fatalf("directory line %d not cleared: %+v", line, e)
				}
			}
			for _, th := range s.threads {
				if th.mode != ModeNone || th.suspended || th.doom != -1 || th.doomKiller != -1 || th.doomAddr != 0 ||
					len(th.readLines) != 0 || len(th.writeLines) != 0 || th.ws.n != 0 || th.St != (stats.Thread{}) {
					t.Fatalf("thread %d not in its initial state", th.C.ID)
				}
			}
			if got := sysProgram(s); !reflect.DeepEqual(got, want) {
				t.Errorf("run after Reset diverged from the run on a new system: cycles %d vs %d, %d vs %d events",
					got.cycles, want.cycles, len(got.events), len(want.events))
			}
		})
	}
}

// assertNewState compares s with a new system of its shape: the machine
// configuration, the HTM configuration, a cleared directory of the
// machine's line count, access tracing off, and one thread per CPU in its
// initial state.
func assertNewState(t *testing.T, s *System) {
	t.Helper()
	want := NewSystem(machine.New(s.M.Cfg), s.Cfg)
	if !reflect.DeepEqual(s.M.Cfg, want.M.Cfg) || s.Cfg != want.Cfg || s.TraceAccesses() {
		t.Errorf("configuration %+v / %+v (tracing %v), want %+v / %+v", s.M.Cfg, s.Cfg, s.TraceAccesses(), want.M.Cfg, want.Cfg)
	}
	if !reflect.DeepEqual(s.dir, want.dir) || !reflect.DeepEqual(s.wideReaders, want.wideReaders) {
		t.Errorf("directory of %d lines differs from a new one of %d lines", len(s.dir), len(want.dir))
	}
	if len(s.threads) != len(want.threads) {
		t.Fatalf("%d threads, want %d", len(s.threads), len(want.threads))
	}
	for _, th := range s.threads {
		if th.mode != ModeNone || th.suspended || th.doom != -1 || th.doomKiller != -1 || th.doomAddr != 0 ||
			len(th.readLines) != 0 || len(th.writeLines) != 0 || th.ws.n != 0 || th.St != (stats.Thread{}) {
			t.Fatalf("thread %d not in its initial state", th.C.ID)
		}
	}
}

// TestSystemResetToMatchesNew checks that a system reset onto a new shape
// reproduces a new system of that shape. Each case builds a system with
// the storage of built, resets it to each shape of via in turn and runs
// the program there, then resets it to the target: after every reset the
// state must be a new system's, and on the target the program must give
// the same events, memory words, statistics and counters as on a new
// system.
func TestSystemResetToMatchesNew(t *testing.T) {
	target := resetSysConfig(3)
	with := func(f func(*machine.Config)) machine.Config {
		c := target
		f(&c)
		return c
	}
	larger := with(func(c *machine.Config) { c.MemWords = 1 << 15 })
	type shape struct {
		m machine.Config
		h Config
	}
	for _, tc := range []struct {
		name  string
		built machine.Config
		via   []shape
	}{
		{"larger memory", larger, []shape{{larger, Config{}}}},
		{"smaller memory", larger, []shape{{with(func(c *machine.Config) { c.MemWords = 1 << 13 }), Config{}}}},
		{"more CPUs", target, []shape{{with(func(c *machine.Config) { c.CPUs = 2 }), Config{}}, {target, Config{}}}},
		{"another seed", target, []shape{{with(func(c *machine.Config) { c.Seed = 6 }), Config{}}}},
		{"another HTM config", target, []shape{{target, Config{UnsafeLoseDoomAtResume: true, WriteCapLines: 8}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := sysProgram(NewSystem(machine.New(target), Config{}))
			s := NewSystem(machine.New(tc.built), Config{})
			for _, v := range tc.via {
				s.resetTo(v.m, v.h)
				assertNewState(t, s)
				sysProgram(s)
			}
			s.resetTo(target, Config{})
			assertNewState(t, s)
			if got := sysProgram(s); !reflect.DeepEqual(got, want) {
				t.Errorf("run after resetTo diverged from the run on a new system: cycles %d vs %d, %d vs %d events",
					got.cycles, want.cycles, len(got.events), len(want.events))
			}
		})
	}
}

// TestTakeReusesWhatFits checks that Take resets an idle system whose
// storage fits the request, and builds a new one for a request that does
// not fit: more memory, more CPUs, or the other side of 64 CPUs.
func TestTakeReusesWhatFits(t *testing.T) {
	pool.Lock()
	pool.idle = nil
	pool.Unlock()
	base := machine.Config{CPUs: 4, MemWords: 1 << 14, Seed: 1}
	s := Take(base, Config{})
	s.Release()
	for _, tc := range []struct {
		name  string
		cfg   machine.Config
		reuse bool
	}{
		{"same shape", base, true},
		{"smaller", machine.Config{CPUs: 2, MemWords: 1 << 12, Seed: 2}, true},
		{"more memory", machine.Config{CPUs: 4, MemWords: 1<<14 + 16}, false},
		{"more CPUs", machine.Config{CPUs: 5, MemWords: 1 << 14}, false},
		{"above 64 CPUs", machine.Config{CPUs: 65, MemWords: 1 << 12}, false},
	} {
		got := Take(tc.cfg, Config{})
		if (got == s) != tc.reuse {
			t.Errorf("%s: reused the idle system = %v, want %v", tc.name, got == s, tc.reuse)
		}
		if got.M.Cfg.CPUs != max(tc.cfg.CPUs, 1) || got.M.Cfg.MemWords != tc.cfg.MemWords || got.M.Cfg.Seed != tc.cfg.Seed {
			t.Errorf("%s: got a machine of %d CPUs, %d words, seed %d", tc.name, got.M.Cfg.CPUs, got.M.Cfg.MemWords, got.M.Cfg.Seed)
		}
		got.Release()
		if !tc.reuse {
			// The idle system did not fit and was dropped for the new one.
			s = got
		}
	}
	pool.Lock()
	defer pool.Unlock()
	if len(pool.idle) != 1 {
		t.Errorf("pool holds %d idle systems after a serial sequence, want 1", len(pool.idle))
	}
}

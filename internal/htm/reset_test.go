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

package htm

import (
	"slices"
	"testing"
	"unsafe"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

func newSys(cpus int) *System {
	m := machine.New(machine.Config{CPUs: cpus, MemWords: 1 << 16, Seed: 7})
	return NewSystem(m, Config{})
}

// addr returns the base address of cache line i (16-word lines).
func addr(i int) machine.Addr { return machine.Addr(16 + i*16) }

func TestCommitPublishes(t *testing.T) {
	s := newSys(1)
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		st := th.Try(false, func() {
			th.Store(addr(0), 42)
			if th.Load(addr(0)) != 42 {
				t.Error("tx does not see own store")
			}
		})
		if !st.OK {
			t.Fatalf("commit failed: %+v", st)
		}
	})
	if s.M.Peek(addr(0)) != 42 {
		t.Error("committed store not visible")
	}
}

func TestAbortDiscards(t *testing.T) {
	s := newSys(1)
	s.M.Poke(addr(0), 1)
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		st := th.Try(false, func() {
			th.Store(addr(0), 99)
			th.Abort(stats.AbortExplicit)
		})
		if st.OK {
			t.Error("expected abort")
		}
		if st.Cause != stats.AbortExplicit {
			t.Errorf("cause = %v", st.Cause)
		}
	})
	if s.M.Peek(addr(0)) != 1 {
		t.Error("aborted store leaked to memory")
	}
	if s.Thread(0).InTx() {
		t.Error("still in tx after abort")
	}
}

func TestSpeculativeStoreHiddenAndNonTxReadDoomsWriter(t *testing.T) {
	s := newSys(2)
	s.M.Poke(addr(0), 1)
	var seen uint64
	var st Status
	s.M.Run(2, func(c *machine.CPU) {
		if c.ID == 0 {
			th := s.Thread(0)
			st = th.Try(false, func() {
				th.Store(addr(0), 5)
				c.Tick(10_000) // stay speculative while CPU 1 reads
				th.Load(addr(1))
			})
		} else {
			c.Tick(2_000)
			seen = s.Thread(1).Load(addr(0)) // non-tx read mid-speculation
		}
	})
	if seen != 1 {
		t.Errorf("non-tx reader saw speculative value %d", seen)
	}
	if st.OK {
		t.Error("writer should have been doomed by the non-tx read")
	}
	if st.Cause != stats.AbortConflictNonTx {
		t.Errorf("cause = %v, want HTM non-tx", st.Cause)
	}
}

func TestTxTxWriteWriteConflictRequesterWins(t *testing.T) {
	s := newSys(2)
	var st0, st1 Status
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			st0 = th.Try(false, func() {
				th.Store(addr(0), 10)
				c.Tick(10_000)
				th.Load(addr(1)) // doom check point
			})
		} else {
			c.Tick(2_000)
			st1 = th.Try(false, func() {
				th.Store(addr(0), 20)
			})
		}
	})
	if st0.OK {
		t.Error("first writer should abort (requester wins)")
	}
	if st0.Cause != stats.AbortConflictTx {
		t.Errorf("cause = %v, want HTM tx", st0.Cause)
	}
	if !st1.OK {
		t.Errorf("second writer should commit: %+v", st1)
	}
	if s.M.Peek(addr(0)) != 20 {
		t.Errorf("memory = %d, want 20", s.M.Peek(addr(0)))
	}
}

func TestTxStoreDoomsTxReader(t *testing.T) {
	s := newSys(2)
	var reader, writer Status
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			reader = th.Try(false, func() {
				th.Load(addr(0))
				c.Tick(10_000)
				th.Load(addr(1))
			})
		} else {
			c.Tick(2_000)
			writer = th.Try(false, func() { th.Store(addr(0), 9) })
		}
	})
	if reader.OK {
		t.Error("tx reader should be doomed by tx writer")
	}
	if reader.Cause != stats.AbortConflictTx {
		t.Errorf("cause = %v", reader.Cause)
	}
	if !writer.OK {
		t.Error("writer should commit")
	}
}

func TestTxLoadDoomsSpeculativeWriter(t *testing.T) {
	s := newSys(2)
	var writer, reader Status
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			writer = th.Try(false, func() {
				th.Store(addr(0), 9)
				c.Tick(10_000)
				th.Load(addr(1))
			})
		} else {
			c.Tick(2_000)
			reader = th.Try(false, func() { th.Load(addr(0)) })
		}
	})
	if writer.OK {
		t.Error("speculative writer should be doomed by tx load")
	}
	if !reader.OK {
		t.Error("reader should commit")
	}
}

func TestNonTxStoreDoomsReadersAndWriter(t *testing.T) {
	s := newSys(3)
	var stR, stW Status
	s.M.Run(3, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		switch c.ID {
		case 0:
			stR = th.Try(false, func() {
				th.Load(addr(0))
				c.Tick(10_000)
				th.Load(addr(1))
			})
		case 1:
			stW = th.Try(false, func() {
				th.Store(addr(2), 1)
				c.Tick(10_000)
				th.Load(addr(1))
			})
		case 2:
			c.Tick(2_000)
			th.Store(addr(0), 7) // non-tx: dooms reader
			th.Store(addr(2), 8) // non-tx: dooms writer
		}
	})
	if stR.OK || stR.Cause != stats.AbortConflictNonTx {
		t.Errorf("reader: %+v, want non-tx conflict abort", stR)
	}
	if stW.OK || stW.Cause != stats.AbortConflictNonTx {
		t.Errorf("writer: %+v, want non-tx conflict abort", stW)
	}
	if s.M.Peek(addr(2)) != 8 {
		t.Error("non-tx store lost")
	}
}

func TestROTLoadsUntracked(t *testing.T) {
	// A non-tx store to a location a ROT has read must NOT doom the ROT —
	// ROTs do not track loads. The same scenario as a regular transaction
	// must abort.
	scenario := func(rot bool) Status {
		s := newSys(2)
		var st Status
		s.M.Run(2, func(c *machine.CPU) {
			th := s.Thread(c.ID)
			if c.ID == 0 {
				st = th.Try(rot, func() {
					th.Load(addr(0))
					c.Tick(10_000)
					th.Store(addr(1), 1)
				})
			} else {
				c.Tick(2_000)
				th.Store(addr(0), 7)
			}
		})
		return st
	}
	if st := scenario(true); !st.OK {
		t.Errorf("ROT aborted by store to read location: %+v", st)
	}
	if st := scenario(false); st.OK {
		t.Error("HTM tx survived store to read location")
	}
}

func TestROTStoreConflictsTracked(t *testing.T) {
	s := newSys(2)
	var st Status
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			st = th.Try(true, func() {
				th.Store(addr(0), 1)
				c.Tick(10_000)
				th.Store(addr(1), 2)
			})
		} else {
			c.Tick(2_000)
			s.Thread(1).Load(addr(0)) // non-tx read of ROT's write set
		}
	})
	if st.OK {
		t.Error("ROT should abort when its write set is read")
	}
	if st.Cause != stats.AbortROTConflict {
		t.Errorf("cause = %v, want ROT conflicts", st.Cause)
	}
}

func TestReadCapacityHTMOnly(t *testing.T) {
	m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 16, Seed: 7})
	s := NewSystem(m, Config{ReadCapLines: 8, WriteCapLines: 8})
	var stHTM, stROT Status
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		stHTM = th.Try(false, func() {
			for i := 0; i < 20; i++ {
				th.Load(addr(i))
			}
		})
		stROT = th.Try(true, func() {
			for i := 0; i < 20; i++ {
				th.Load(addr(i))
			}
			th.Store(addr(0), 1)
		})
	})
	if stHTM.OK || stHTM.Cause != stats.AbortCapacity || !stHTM.Persistent {
		t.Errorf("HTM: %+v, want persistent capacity abort", stHTM)
	}
	if !stROT.OK {
		t.Errorf("ROT hit read capacity: %+v", stROT)
	}
}

func TestWriteCapacity(t *testing.T) {
	m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 16, Seed: 7})
	s := NewSystem(m, Config{ReadCapLines: 64, WriteCapLines: 4})
	var stHTM, stROT Status
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		stHTM = th.Try(false, func() {
			for i := 0; i < 10; i++ {
				th.Store(addr(i), 1)
			}
		})
		stROT = th.Try(true, func() {
			for i := 0; i < 10; i++ {
				th.Store(addr(i), 1)
			}
		})
	})
	if stHTM.OK || stHTM.Cause != stats.AbortCapacity {
		t.Errorf("HTM: %+v", stHTM)
	}
	if stROT.OK || stROT.Cause != stats.AbortROTCapacity {
		t.Errorf("ROT: %+v, want ROT capacity", stROT)
	}
}

func TestSameLineCountsOnce(t *testing.T) {
	m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 16, Seed: 7})
	s := NewSystem(m, Config{ReadCapLines: 2, WriteCapLines: 2})
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		st := th.Try(false, func() {
			for i := 0; i < 100; i++ {
				th.Load(addr(0) + machine.Addr(i%16))
				th.Store(addr(1)+machine.Addr(i%16), 1)
			}
		})
		if !st.OK {
			t.Errorf("same-line accesses tripped capacity: %+v", st)
		}
	})
}

func TestSuspendResumeCleanPath(t *testing.T) {
	s := newSys(1)
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		st := th.Try(false, func() {
			th.Store(addr(0), 5)
			th.Suspend()
			// Non-transactional side effects while suspended hit memory
			// immediately and survive even if the tx later aborts.
			th.Store(addr(1), 77)
			if th.Load(addr(0)) == 5 {
				t.Error("suspended load observed own speculative store")
			}
			th.Resume()
		})
		if !st.OK {
			t.Fatalf("suspend/resume tx failed: %+v", st)
		}
	})
	if s.M.Peek(addr(0)) != 5 || s.M.Peek(addr(1)) != 77 {
		t.Error("stores lost")
	}
}

func TestConflictWhileSuspendedAbortsAtResume(t *testing.T) {
	s := newSys(2)
	var st Status
	resumed := false
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			st = th.Try(false, func() {
				th.Store(addr(0), 5)
				th.Suspend()
				c.Tick(10_000) // reader conflicts during this window
				if !th.Doomed() {
					t.Error("tcheck should report doom while suspended")
				}
				th.Resume()
				resumed = true
			})
		} else {
			c.Tick(2_000)
			th.Load(addr(0)) // non-tx read of suspended writer's write set
		}
	})
	if st.OK {
		t.Error("suspended writer must abort at resume")
	}
	if resumed {
		t.Error("control continued past Resume after doom")
	}
	if s.M.Peek(addr(0)) != 0 {
		t.Error("speculative store leaked")
	}
}

func TestSuspendedWriterCommitsAfterQuietWindow(t *testing.T) {
	s := newSys(2)
	var st Status
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			st = th.Try(false, func() {
				th.Store(addr(0), 5)
				th.Suspend()
				c.Tick(10_000)
				th.Resume()
			})
		} else {
			c.Tick(2_000)
			th.Load(addr(5)) // unrelated line: no conflict
		}
	})
	if !st.OK {
		t.Errorf("unconflicted suspended writer aborted: %+v", st)
	}
	if s.M.Peek(addr(0)) != 5 {
		t.Error("commit lost")
	}
}

func TestEagerLockSubscription(t *testing.T) {
	// A tx that Loads a lock word is doomed when another thread CASes it.
	s := newSys(2)
	lock := addr(9)
	var st Status
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			st = th.Try(false, func() {
				if th.Load(lock) != 0 {
					th.Abort(stats.AbortLockBusy)
				}
				c.Tick(10_000)
				th.Load(addr(1))
			})
		} else {
			c.Tick(2_000)
			if !th.CAS(lock, 0, 1) {
				t.Error("CAS failed")
			}
		}
	})
	if st.OK {
		t.Error("subscribed tx must abort when the lock is acquired")
	}
	if st.Cause != stats.AbortConflictNonTx {
		t.Errorf("cause = %v", st.Cause)
	}
}

func TestInterruptAbortsTx(t *testing.T) {
	m := machine.New(machine.Config{
		CPUs: 1, MemWords: 1 << 16, Seed: 7,
		Paging: machine.PagingConfig{InterruptMean: 500},
	})
	s := NewSystem(m, Config{})
	aborted := false
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		for i := 0; i < 20 && !aborted; i++ {
			st := th.Try(false, func() {
				for j := 0; j < 30; j++ {
					th.Load(addr(j))
					c.Tick(100)
				}
			})
			if !st.OK && st.Cause == stats.AbortConflictNonTx {
				aborted = true
			}
		}
	})
	if !aborted {
		t.Error("long transactions never hit a timer interrupt")
	}
}

func TestPageFaultAbortsTx(t *testing.T) {
	m := machine.New(machine.Config{
		CPUs: 1, MemWords: 1 << 16, Seed: 7,
		Paging: machine.PagingConfig{Enabled: true, PageWords: 64, ResidentLimit: 2, TLBEntries: 2},
	})
	s := NewSystem(m, Config{})
	var st Status
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		st = th.Try(false, func() {
			for p := 0; p < 8; p++ {
				th.Load(machine.Addr(p * 64))
			}
		})
	})
	if st.OK || st.Cause != stats.AbortConflictNonTx {
		t.Errorf("tx touching non-resident pages: %+v, want non-tx abort", st)
	}
}

func TestConcurrentCountersSerializable(t *testing.T) {
	const n, iters = 8, 50
	s := newSys(n)
	ctr := addr(3)
	s.M.Run(n, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		for i := 0; i < iters; i++ {
			// Exponential backoff, as any sane HTM retry loop uses:
			// without it this workload livelocks on real hardware too.
			for attempt := 0; ; attempt++ {
				st := th.Try(false, func() {
					v := th.Load(ctr)
					th.Store(ctr, v+1)
				})
				if st.OK {
					break
				}
				shift := attempt
				if shift > 10 {
					shift = 10
				}
				window := 1 << shift
				for k := 0; k < 1+c.Intn(window); k++ {
					c.Spin()
				}
			}
		}
	})
	if got := s.M.Peek(ctr); got != n*iters {
		t.Errorf("counter = %d, want %d (lost updates)", got, n*iters)
	}
}

func TestFigure1MixedSnapshotWithoutQuiescence(t *testing.T) {
	// Reproduce the paper's Figure 1 hazard: a non-transactional reader
	// that reads x before a writer's tx and y after its commit observes a
	// mixed snapshot. This is the anomaly RW-LE's quiescence exists to
	// prevent — the substrate must therefore exhibit it.
	s := newSys(2)
	x, y := addr(0), addr(1)
	var rx, ry uint64
	var st Status
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		if c.ID == 0 {
			rx = th.Load(x)
			c.Tick(20_000)
			ry = th.Load(y)
		} else {
			c.Tick(2_000)
			st = th.Try(false, func() {
				th.Store(x, 1)
				th.Store(y, 1)
			})
		}
	})
	if !st.OK {
		t.Fatalf("writer aborted: %+v", st)
	}
	if rx != 0 || ry != 1 {
		t.Errorf("expected mixed snapshot (0,1), got (%d,%d)", rx, ry)
	}
}

func TestStatsCounted(t *testing.T) {
	s := newSys(1)
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		th.Try(false, func() { th.Store(addr(0), 1) })
		th.Try(false, func() { th.Abort(stats.AbortExplicit) })
	})
	st := &s.Thread(0).St
	if st.TxStarts != 2 {
		t.Errorf("TxStarts = %d", st.TxStarts)
	}
	if st.Aborts[stats.AbortExplicit] != 1 {
		t.Errorf("aborts = %v", st.Aborts)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, [stats.NumAbortCauses]int64) {
		s := newSys(4)
		var aborts [stats.NumAbortCauses]int64
		el := s.M.Run(4, func(c *machine.CPU) {
			th := s.Thread(c.ID)
			for i := 0; i < 40; i++ {
				th.Try(false, func() {
					a := addr(c.Intn(4))
					th.Store(a, th.Load(a)+1)
				})
			}
		})
		for _, th := range s.Threads() {
			for i, v := range th.St.Aborts {
				aborts[i] += v
			}
		}
		return el, aborts
	}
	e1, a1 := run()
	e2, a2 := run()
	if e1 != e2 || a1 != a2 {
		t.Errorf("nondeterministic: (%d %v) vs (%d %v)", e1, a1, e2, a2)
	}
}

// TestReaderBitmapWideIDs pins the conflict directory's reader bitmap at
// the edges of its inline word and its side table (IDs 0, 63, 64, 127,
// 255): add, has, delete and any-other, and a doom sweep that reaches
// every reader but the dooming CPU, in ID order.
func TestReaderBitmapWideIDs(t *testing.T) {
	ids := []int{0, 63, 64, 127, 255}
	s := newSys(machine.MaxCPUs)
	const line = 5
	for i, id := range ids {
		if got := s.anyOtherReader(line, id); got != (i > 0) {
			t.Errorf("before adding CPU %d: anyOtherReader = %v", id, got)
		}
		s.addReader(line, id)
		for j, other := range ids {
			if got, want := s.hasReader(line, other), j <= i; got != want {
				t.Errorf("after adding CPUs %v: hasReader(%d) = %v", ids[:i+1], other, got)
			}
		}
	}
	for _, id := range ids {
		if !s.anyOtherReader(line, id) {
			t.Errorf("anyOtherReader(%d) = false with %d readers", id, len(ids))
		}
	}

	tr := machine.NewRingTracer(16)
	s.M.SetTracer(tr)
	s.Thread(64).doomReaders(line, true, addr(line))
	for _, id := range ids {
		if doomed := s.Thread(id).doom >= 0; doomed != (id != 64) {
			t.Errorf("doomReaders by CPU 64: CPU %d doomed = %v", id, doomed)
		}
	}
	var order []int
	for _, e := range tr.Events() {
		order = append(order, e.CPU)
	}
	if want := []int{0, 63, 127, 255}; !slices.Equal(order, want) {
		t.Errorf("doom order %v, want %v", order, want)
	}

	for _, id := range ids[:len(ids)-1] {
		s.delReader(line, id)
		if s.hasReader(line, id) {
			t.Errorf("delReader(%d) left the bit set", id)
		}
	}
	if s.anyOtherReader(line, 255) || !s.anyOtherReader(line, 0) {
		t.Error("with CPU 255 the only reader, anyOtherReader is wrong")
	}
	s.delReader(line, 255)
	var none [machine.MaxCPUs / 64]uint64
	if s.readerSet(line) != none || s.readerSet(line-1) != none || s.readerSet(line+1) != none {
		t.Error("reader bits left behind or leaked into neighbouring lines")
	}
}

// TestDirEntryFootprint pins the host cost of a conflict-directory line:
// 16 bytes, plus a side table only on machines above 64 CPUs.
func TestDirEntryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(dirEntry{}); got != 16 {
		t.Errorf("dirEntry is %d bytes, want 16", got)
	}
	if s := newSys(64); s.wideReaders != nil {
		t.Error("64-CPU system allocated the wide reader table")
	}
	if s := newSys(65); len(s.wideReaders) != s.M.NumLines() {
		t.Errorf("65-CPU system: wide reader table has %d entries, want %d", len(s.wideReaders), s.M.NumLines())
	}
}

// TestWriteSetLazy pins the store buffer's lazy table: a thread that never
// stores transactionally allocates none, the first store allocates the
// minimum table, and growth past it and epoch resets keep every entry.
func TestWriteSetLazy(t *testing.T) {
	var w writeSet
	if _, ok := w.get(64); ok || w.addrs != nil {
		t.Fatal("empty write set reported an entry or holds a table")
	}
	if n := testing.AllocsPerRun(100, func() { w.get(64) }); n != 0 {
		t.Errorf("get on an empty write set allocates %v times", n)
	}
	w.reset()
	w.put(64, 1)
	if len(w.addrs) != writeSetMinSlots {
		t.Fatalf("first put: table of %d slots, want %d", len(w.addrs), writeSetMinSlots)
	}
	if v, ok := w.get(64); !ok || v != 1 {
		t.Fatalf("get after first put = %d, %v", v, ok)
	}
	w.reset()
	for round := 0; round < 3; round++ {
		n := writeSetMinSlots + 7 // forces a grow on the first round
		for i := 0; i < n; i++ {
			w.put(machine.Addr(100+i), uint64(round*1000+i))
		}
		for i := 0; i < n; i++ {
			if v, ok := w.get(machine.Addr(100 + i)); !ok || v != uint64(round*1000+i) {
				t.Fatalf("round %d: get(%d) = %d, %v", round, 100+i, v, ok)
			}
		}
		if len(w.order) != n || w.order[0] != 100 {
			t.Fatalf("round %d: insertion order has %d entries starting %v", round, len(w.order), w.order[:1])
		}
		w.reset()
		if _, ok := w.get(100); ok {
			t.Fatalf("round %d: entry survived reset", round)
		}
	}
}

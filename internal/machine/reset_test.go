package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// resetConfig pages with a small residency limit and a tiny TLB, so the
// program below faults, evicts and misses, and delivers timer interrupts.
func resetConfig(cpus int) Config {
	return Config{
		CPUs: cpus, MemWords: 1 << 14, Seed: 9,
		Paging: PagingConfig{Enabled: true, PageWords: 64, ResidentLimit: 6, TLBEntries: 4, InterruptMean: 3000},
	}
}

// resetRun is everything a run of resetProgram makes observable.
type resetRun struct {
	cycles   int64
	events   []Event
	words    []uint64
	counters []Counters
	hooks    int
	heapUsed int64
	resident int64
}

// resetProgram populates memory in Setup, then runs every CPU through
// reads, writes and CAS on shared lines, plain and aligned allocations
// with frees left on the free lists, and random work, under paging and
// interrupts with hooks installed.
func resetProgram(m *Machine) resetRun {
	lw := Addr(m.Cfg.LineWords)
	var shared Addr
	m.Setup(func(c *CPU) {
		shared = c.AllocAligned(4 * int64(lw))
		for i := Addr(0); i < 4; i++ {
			c.Write(shared+i*lw, uint64(i)+1)
		}
	})
	var r resetRun
	for _, c := range m.cpus {
		c.OnInterrupt = func() { r.hooks++ }
		c.OnPageFault = func() { r.hooks++ }
	}
	var log LogTracer
	m.SetTracer(&log)
	type block struct {
		a       Addr
		n       int64
		aligned bool
	}
	r.cycles = m.Run(len(m.cpus), func(c *CPU) {
		var blocks []block
		for i := 0; i < 40; i++ {
			a := shared + Addr(c.Intn(4))*lw
			switch c.Intn(6) {
			case 0:
				c.Write(a, c.Rand64())
			case 1:
				c.Read(a)
			case 2:
				c.CAS(a, c.Read(a), uint64(c.ID))
			case 3:
				n := int64(1+c.Intn(3)) * 8
				b := c.Alloc(n)
				c.Write(b+Addr(n)-1, uint64(c.ID)+1)
				blocks = append(blocks, block{b, n, false})
			case 4:
				n := int64(1 + c.Intn(20))
				b := c.AllocAligned(n)
				c.Write(b, uint64(i))
				blocks = append(blocks, block{b, n, true})
			case 5:
				if k := len(blocks); k > 0 {
					b := blocks[k-1]
					blocks = blocks[:k-1]
					c.Read(b.a)
					if b.aligned {
						c.FreeAligned(b.a, b.n)
					} else {
						c.Free(b.a, b.n)
					}
				}
			}
			c.Work(int64(c.Intn(50)))
		}
		for _, b := range blocks[:len(blocks)/2] {
			if b.aligned {
				c.FreeAligned(b.a, b.n)
			} else {
				c.Free(b.a, b.n)
			}
		}
	})
	r.events = log.Events
	r.words = append([]uint64(nil), m.words...)
	for _, c := range m.cpus {
		r.counters = append(r.counters, c.Counters)
	}
	r.heapUsed = m.HeapUsed()
	r.resident = m.ResidentPages()
	return r
}

// TestResetMatchesNew checks that a machine reset after a run that
// allocated, freed, paged and took interrupts reproduces a new machine:
// the same run gives the same event stream, memory words and counters,
// and the reset state equals New's. 70 CPUs covers the side-table sharer
// bits of CPUs 64 and up.
func TestResetMatchesNew(t *testing.T) {
	for _, cpus := range []int{3, 70} {
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			cfg := resetConfig(cpus)
			want := resetProgram(New(cfg))
			if want.hooks == 0 || want.resident == 0 || len(want.events) == 0 {
				t.Fatalf("program exercised too little: %d hook calls, %d resident pages, %d events", want.hooks, want.resident, len(want.events))
			}

			m := New(cfg)
			resetProgram(m)
			resetProgram(m) // a second run on top: time and the heap move on
			m.Reset()
			assertInitialState(t, m, New(cfg))
			if got := resetProgram(m); !reflect.DeepEqual(got, want) {
				t.Errorf("run after Reset diverged from the run on a new machine: cycles %d vs %d, %d vs %d events, heap %d vs %d",
					got.cycles, want.cycles, len(got.events), len(want.events), got.heapUsed, want.heapUsed)
			}
		})
	}
}

// assertInitialState compares every piece of state New defines, except
// the CPUs' TLB storage, which Reset keeps and Run re-initializes.
func assertInitialState(t *testing.T, got, want *Machine) {
	t.Helper()
	if !reflect.DeepEqual(got.words, want.words) {
		t.Error("memory words differ from a new machine")
	}
	if !reflect.DeepEqual(got.lines, want.lines) || !reflect.DeepEqual(got.wideSharers, want.wideSharers) {
		t.Error("coherence state differs from a new machine")
	}
	if !reflect.DeepEqual(got.pager, want.pager) {
		t.Errorf("pager %+v, want %+v", got.pager, want.pager)
	}
	if got.alloc.next != want.alloc.next {
		t.Errorf("allocator next = %d, want %d", got.alloc.next, want.alloc.next)
	}
	for size, lst := range got.alloc.free {
		if len(lst) != 0 {
			t.Errorf("free list of size %d holds %d blocks", size, len(lst))
		}
	}
	if len(got.heap.cpus) != 0 || got.baseTime != 0 || got.tracer != nil || got.sched != nil || got.next != nil || got.runErr != nil {
		t.Error("scheduler, time or tracer state not reset")
	}
	for i, c := range got.cpus {
		gc, wc := *c, *want.cpus[i]
		gc.m, wc.m, gc.tlb = nil, nil, nil
		if !reflect.DeepEqual(gc, wc) {
			t.Errorf("CPU %d = %+v, want %+v", i, gc, wc)
		}
	}
}

func TestResetDuringRunPanics(t *testing.T) {
	m := New(testConfig(1))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Reset during Run") {
			t.Fatalf("Reset inside Run: recovered %v, want the Reset-during-Run panic", r)
		}
	}()
	m.Run(1, func(c *CPU) { m.Reset() })
}

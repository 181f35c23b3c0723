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
			m.ResetTo(cfg)
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
	if !reflect.DeepEqual(got.Cfg, want.Cfg) {
		t.Errorf("configuration %+v, want %+v", got.Cfg, want.Cfg)
	}
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

// TestResetToMatchesNew checks that a machine reset onto a new shape
// reproduces a new machine of that shape. Each case builds a machine with
// the storage of built, resets it to each shape of via in turn and runs the
// program there, then resets it to the target. After every reset the state
// must equal a new machine's of that shape, and on the target the program
// must give the same run as on New(target).
func TestResetToMatchesNew(t *testing.T) {
	target := resetConfig(3)
	with := func(f func(*Config)) Config {
		c := target
		f(&c)
		return c
	}
	larger := with(func(c *Config) { c.MemWords = 1 << 15 })
	smaller := with(func(c *Config) { c.MemWords = 1 << 13 })
	fewer := with(func(c *Config) { c.CPUs = 2 })
	for _, tc := range []struct {
		name  string
		built Config
		via   []Config
	}{
		{"larger memory", larger, []Config{larger}},
		{"smaller memory", larger, []Config{smaller}},
		{"more CPUs", target, []Config{fewer, target}},
		{"another seed", target, []Config{with(func(c *Config) { c.Seed = 10 })}},
		{"no paging", target, []Config{with(func(c *Config) { c.Paging = PagingConfig{} })}},
		{"other paging", larger, []Config{with(func(c *Config) { c.MemWords, c.Paging.PageWords, c.Paging.TLBEntries = 1<<15, 32, 8 })}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := resetProgram(New(target))
			m := New(tc.built)
			for _, cfg := range tc.via {
				m.ResetTo(cfg)
				assertInitialState(t, m, New(cfg))
				resetProgram(m)
			}
			m.ResetTo(target)
			assertInitialState(t, m, New(target))
			if got := resetProgram(m); !reflect.DeepEqual(got, want) {
				t.Errorf("run after ResetTo diverged from the run on a new machine: cycles %d vs %d, %d vs %d events, heap %d vs %d",
					got.cycles, want.cycles, len(got.events), len(want.events), got.heapUsed, want.heapUsed)
			}
		})
	}
}

// TestFits checks which shapes a machine's storage takes: no more words
// or CPUs than it was built with, the same line size and the same side of
// 64 CPUs. ResetTo refuses the rest.
func TestFits(t *testing.T) {
	m := New(Config{CPUs: 8, MemWords: 1 << 14})
	for _, tc := range []struct {
		cfg  Config
		fits bool
	}{
		{Config{CPUs: 8, MemWords: 1 << 14}, true},
		{Config{CPUs: 1, MemWords: 1 << 10, Seed: 3, Paging: PagingConfig{Enabled: true}}, true},
		{Config{CPUs: 8, MemWords: 1<<14 + 1}, false},
		{Config{CPUs: 9, MemWords: 1 << 14}, false},
		{Config{CPUs: 8, MemWords: 1 << 14, LineWords: 8}, false},
	} {
		if got := m.Fits(tc.cfg); got != tc.fits {
			t.Errorf("Fits(%d CPUs, %d words, %d-word lines) = %v, want %v", tc.cfg.CPUs, tc.cfg.MemWords, tc.cfg.LineWords, got, tc.fits)
		}
	}
	wide := New(Config{CPUs: 70, MemWords: 1 << 12})
	if wide.Fits(Config{CPUs: 64, MemWords: 1 << 12}) || !wide.Fits(Config{CPUs: 65, MemWords: 1 << 12}) {
		t.Error("a machine above 64 CPUs must take only shapes above 64 CPUs")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "does not fit") {
			t.Fatalf("ResetTo a shape that does not fit: recovered %v, want a panic", r)
		}
	}()
	m.ResetTo(Config{CPUs: 9, MemWords: 1 << 14})
}

func TestResetDuringRunPanics(t *testing.T) {
	m := New(testConfig(1))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "ResetTo during Run") {
			t.Fatalf("ResetTo inside Run: recovered %v, want the ResetTo-during-Run panic", r)
		}
	}()
	m.Run(1, func(c *CPU) { m.ResetTo(m.Cfg) })
}

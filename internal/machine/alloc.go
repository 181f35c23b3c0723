package machine

import "fmt"

// arena is a simple dynamic allocator over simulated memory: a bump pointer
// plus exact-size free lists. It lives outside simulated memory (its own
// bookkeeping costs are charged as a flat Alloc cost), which keeps it out
// of the coherence and conflict-detection picture — the experiments are
// about the applications' accesses, not the allocator's.
type arena struct {
	next      Addr
	limit     Addr
	lineWords int64
	free      map[int64][]Addr
}

// reset empties the arena and sizes it for cfg: the bump pointer goes
// back to the start and the free lists are emptied in place, keeping their
// storage.
//
//simlint:allow determinism every free list is truncated independently, so the map's iteration order cannot affect the result
func (a *arena) reset(cfg Config) {
	a.limit = Addr(cfg.MemWords)
	a.lineWords = cfg.LineWords
	// Reserve line 0 so that Addr 0 can serve as nil and so the first
	// allocation never shares a line with the nil address.
	a.next = Addr(a.lineWords)
	for size, lst := range a.free {
		a.free[size] = lst[:0]
	}
}

// alloc returns a block of n words and whether it was recycled from a
// free list; a block that was not is bump space above every earlier
// allocation.
func (a *arena) alloc(n int64, lineAligned bool) (addr Addr, recycled bool) {
	if n <= 0 {
		panic("machine: Alloc with non-positive size")
	}
	if lineAligned {
		// Round the size up to whole lines so line-aligned blocks never
		// share a cache line and can be recycled by size class.
		n = (n + a.lineWords - 1) &^ (a.lineWords - 1)
	}
	key := n
	if lineAligned {
		key = -n // aligned blocks use a separate size-class namespace
	}
	if lst := a.free[key]; len(lst) > 0 {
		a.free[key] = lst[:len(lst)-1]
		return lst[len(lst)-1], true
	}
	p := a.next
	if lineAligned {
		p = Addr((int64(p) + a.lineWords - 1) &^ (a.lineWords - 1))
	}
	if p+Addr(n) > a.limit {
		panic(fmt.Sprintf("machine: simulated memory exhausted (%d words requested, %d free)", n, a.limit-a.next))
	}
	a.next = p + Addr(n)
	return p, false
}

func (a *arena) release(addr Addr, n int64, lineAligned bool) {
	key := n
	if lineAligned {
		n = (n + a.lineWords - 1) &^ (a.lineWords - 1)
		key = -n
	}
	a.free[key] = append(a.free[key], addr)
}

// allocWords allocates n words of simulated memory, all zero. Only a
// block recycled from a free list needs clearing: bump space above the
// high-water mark is zero already, because New and ResetTo leave all of
// it zero and nothing above the mark is ever written.
func (m *Machine) allocWords(n int64, aligned bool) Addr {
	addr, recycled := m.alloc.alloc(n, aligned)
	if recycled {
		size := Addr(n)
		if aligned {
			size = Addr((n + m.Cfg.LineWords - 1) &^ (m.Cfg.LineWords - 1))
		}
		clear(m.words[addr : addr+size])
	}
	return addr
}

func (m *Machine) freeWords(addr Addr, n int64, aligned bool) {
	// Blocks are recycled within the namespace they were allocated from,
	// so callers must pass the original size AND whether the block came
	// from the aligned allocator — the size classes differ (aligned
	// blocks are rounded up to whole lines).
	m.alloc.release(addr, n, aligned)
}

// AllocRaw allocates n words without charging any CPU time. Intended for
// Setup-phase population.
func (m *Machine) AllocRaw(n int64) Addr { return m.allocWords(n, false) }

// AllocRawAligned allocates n line-aligned words without charging CPU time.
func (m *Machine) AllocRawAligned(n int64) Addr { return m.allocWords(n, true) }

// HeapUsed reports how many words have been claimed from the bump pointer.
func (m *Machine) HeapUsed() int64 { return int64(m.alloc.next) }

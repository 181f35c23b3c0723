package htm

import (
	"math/bits"

	"hrwle/internal/machine"
)

// writeSet is the transactional store buffer: an open-addressed hash table
// from word address to buffered value. It replaces a Go map on the
// simulator's hottest path — every transactional store and every load that
// might hit the store buffer. Two properties matter:
//
//   - reset is O(1): slots are validated by an epoch stamp, so starting the
//     next transaction is a counter increment instead of a map-clearing
//     loop, and the table stays warm in the host cache across attempts;
//   - insertion order is recorded, so commit publishes stores in program
//     order and the simulation stays deterministic.
//
// The table grows geometrically and never shrinks; a thread's steady-state
// footprint is bounded by the HTM write-capacity budget (WriteCapLines ×
// LineWords words), so the table stops growing after the first few
// transactions.
type writeSet struct {
	addrs []machine.Addr
	vals  []uint64
	stamp []uint32
	order []machine.Addr

	epoch uint32
	shift uint // 64 - log2(len(addrs)), for multiplicative hashing
	n     int
}

// writeSetMinSlots is the table size allocated by a thread's first
// transactional store; the zero writeSet is empty and allocates nothing,
// so threads that never store transactionally cost no table.
const writeSetMinSlots = 256

// reset discards all entries in O(1) by advancing the epoch. Epoch 0 is
// never live once a table exists (grow and the wrap below skip it), so
// the zeroed stamps of a fresh table read as empty.
func (w *writeSet) reset() {
	w.n = 0
	w.order = w.order[:0]
	w.epoch++
	if w.epoch == 0 { // stamp space wrapped: invalidate every slot the slow way
		for i := range w.stamp {
			w.stamp[i] = 0
		}
		w.epoch = 1
	}
}

func (w *writeSet) slot(a machine.Addr) int {
	return int(uint64(a) * 0x9e3779b97f4a7c15 >> w.shift)
}

// get returns the buffered value for a, if any.
//
//simlint:hotpath
func (w *writeSet) get(a machine.Addr) (uint64, bool) {
	if w.n == 0 {
		return 0, false
	}
	mask := len(w.addrs) - 1
	for i := w.slot(a); ; i = (i + 1) & mask {
		if w.stamp[i] != w.epoch {
			return 0, false
		}
		if w.addrs[i] == a {
			return w.vals[i], true
		}
	}
}

// put buffers the store a←v, appending a to the insertion order on first
// write to that address.
//
//simlint:hotpath
func (w *writeSet) put(a machine.Addr, v uint64) {
	if 2*(w.n+1) > len(w.addrs) {
		w.grow()
	}
	mask := len(w.addrs) - 1
	for i := w.slot(a); ; i = (i + 1) & mask {
		if w.stamp[i] != w.epoch {
			w.stamp[i] = w.epoch
			w.addrs[i] = a
			w.vals[i] = v
			w.n++
			w.order = append(w.order, a)
			return
		}
		if w.addrs[i] == a {
			w.vals[i] = v
			return
		}
	}
}

// grow doubles the table, or allocates the first one, and re-inserts the
// live entries.
func (w *writeSet) grow() {
	oldAddrs, oldVals, oldStamp := w.addrs, w.vals, w.stamp
	size := max(2*len(oldAddrs), writeSetMinSlots)
	w.addrs = make([]machine.Addr, size)
	w.vals = make([]uint64, size)
	w.stamp = make([]uint32, size)
	w.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if w.epoch == 0 {
		w.epoch = 1
	}
	mask := size - 1
	for j, st := range oldStamp {
		if st != w.epoch {
			continue
		}
		a := oldAddrs[j]
		i := w.slot(a)
		for w.stamp[i] == w.epoch {
			i = (i + 1) & mask
		}
		w.stamp[i] = w.epoch
		w.addrs[i] = a
		w.vals[i] = oldVals[j]
	}
}

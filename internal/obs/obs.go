// Package obs turns the machine.Tracer event firehose into structured,
// queryable run telemetry: a killer→victim abort-attribution matrix, a
// per-address conflict hot-spot ranking, and per-critical-section span
// latency histograms split by read/write side and final commit path — the
// lens the paper's evaluation (Figs. 5-8) uses to explain performance
// ("who aborts whom, and on which path does each section finally commit").
//
// Everything here is a pure event consumer: installing a Collector never
// changes virtual time, and with no tracer installed the simulation pays
// nothing (machine.CPU.Emit's nil check). All outputs are deterministic —
// identical seeds produce byte-identical metrics JSON.
package obs

import (
	"sort"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// matrixKey identifies one abort-attribution cell.
type matrixKey struct {
	cause  stats.AbortCause
	killer int // CPU id; -1 = VM subsystem / no aggressor
	victim int
}

// spanState tracks one CPU's open critical-section span.
type spanState struct {
	open    bool
	write   bool
	start   int64
	quiesce int64 // quiescence-window cycles inside this span
}

// Collector consumes trace events into run telemetry. It implements
// machine.Tracer and must observe a complete run (install it before
// machine.Run) for span accounting to balance.
type Collector struct {
	eventCounts [machine.NumEventKinds]int64

	matrix map[matrixKey]int64
	addrs  map[machine.Addr]int64

	spans [machine.MaxCPUs]spanState
	// lat[side][path]: span latency histograms; side 0 = read, 1 = write.
	lat [2][stats.NumCommitPaths]Hist
	// retries/quiesceBy[side][path]: aborted attempts and quiescence cycles
	// accumulated by the spans that finally committed on (side, path).
	retries   [2][stats.NumCommitPaths]int64
	quiesceBy [2][stats.NumCommitPaths]int64
	// quiesce: one sample per quiescence window (any path).
	quiesce Hist
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{
		matrix: make(map[matrixKey]int64),
		addrs:  make(map[machine.Addr]int64),
	}
}

// Event implements machine.Tracer.
func (c *Collector) Event(e machine.Event) {
	c.eventCounts[e.Kind]++
	switch e.Kind {
	case machine.EvTxDoom:
		// One doom per transaction attempt: the conflict occurrence. The
		// hot-spot ranking counts these, attributed to the contended
		// address; VM-subsystem dooms carry no address and are skipped.
		if e.Addr != 0 {
			c.addrs[e.Addr]++
		}
	case machine.EvTxAbort:
		cause, killer := htm.UnpackAbortAux(e.Aux)
		c.matrix[matrixKey{cause, killer, e.CPU}]++
	case machine.EvQuiesceEnd:
		c.quiesce.Add(int64(e.Aux))
		if s := &c.spans[e.CPU]; s.open {
			s.quiesce += int64(e.Aux)
		}
	case machine.EvCSBegin:
		write, _, _ := machine.UnpackCS(e.Aux)
		c.spans[e.CPU] = spanState{open: true, write: write, start: e.Time}
	case machine.EvCSEnd:
		s := &c.spans[e.CPU]
		if !s.open {
			return // trace started mid-section; drop the partial span
		}
		write, path, retries := machine.UnpackCS(e.Aux)
		side := 0
		if write {
			side = 1
		}
		if path >= uint64(stats.NumCommitPaths) {
			path = 0
		}
		c.lat[side][path].Add(e.Time - s.start)
		c.retries[side][path] += int64(retries)
		c.quiesceBy[side][path] += s.quiesce
		*s = spanState{}
	}
}

// TotalEvents returns the number of events the collector has seen.
func (c *Collector) TotalEvents() int64 {
	var n int64
	for _, k := range c.eventCounts {
		n += k
	}
	return n
}

// EventTotals returns per-kind event counts keyed by kind name.
func (c *Collector) EventTotals() map[string]int64 {
	out := make(map[string]int64)
	for k, n := range c.eventCounts {
		if n > 0 {
			out[machine.EventKind(k).String()] = n
		}
	}
	return out
}

// Matrix returns the abort-attribution cells sorted by (cause, killer,
// victim). Killer -1 denotes aborts with no aggressor CPU (capacity,
// explicit, lock-busy and VM-subsystem aborts).
func (c *Collector) Matrix() []MatrixCell {
	return matrixCells(c.matrix)
}

// matrixCells converts abort-attribution counts into cells sorted by
// (cause, killer, victim).
func matrixCells(m map[matrixKey]int64) []MatrixCell {
	cells := make([]MatrixCell, 0, len(m))
	for k, n := range m {
		cells = append(cells, MatrixCell{
			Cause:  k.cause.String(),
			causeN: int(k.cause),
			Killer: k.killer,
			Victim: k.victim,
			Count:  n,
		})
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.causeN != b.causeN {
			return a.causeN < b.causeN
		}
		if a.Killer != b.Killer {
			return a.Killer < b.Killer
		}
		return a.Victim < b.Victim
	})
	return cells
}

// HotAddrs returns the top-n conflict addresses by doom count, ties broken
// by address for determinism.
func (c *Collector) HotAddrs(n int) []AddrConflicts {
	out := make([]AddrConflicts, 0, len(c.addrs))
	for a, cnt := range c.addrs {
		out = append(out, AddrConflicts{Addr: int64(a), Count: cnt})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Addr < out[j].Addr
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Spans returns per-(side, final-path) span statistics for every
// combination that completed at least one critical section, in a fixed
// (read-first, path-ordered) order.
func (c *Collector) Spans() []SpanStats {
	var out []SpanStats
	for side := 0; side < 2; side++ {
		name := "read"
		if side == 1 {
			name = "write"
		}
		for p := 0; p < stats.NumCommitPaths; p++ {
			h := &c.lat[side][p]
			if h.Count == 0 {
				continue
			}
			out = append(out, SpanStats{
				Side:          name,
				Path:          stats.CommitPath(p).String(),
				Count:         h.Count,
				Retries:       c.retries[side][p],
				QuiesceCycles: c.quiesceBy[side][p],
				Latency:       h.JSON(),
			})
		}
	}
	return out
}

// QuiesceHist returns the quiescence-window duration histogram.
func (c *Collector) QuiesceHist() HistJSON { return c.quiesce.JSON() }

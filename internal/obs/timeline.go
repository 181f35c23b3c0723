package obs

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// TimelineWindow is one fixed-width virtual-time window of run telemetry:
// the live signal the per-shard adaptive controller consumes, plus the
// open-system queue/latency series filled in after the run from the
// request log. All per-category slices use the legend orders
// published in TimelineReport (stats commit-path and abort-cause order).
type TimelineWindow struct {
	Index       int   `json:"index"`
	StartCycles int64 `json:"start_cycles"` // relative to run base

	// Event-derived series (available live, via Subscribe).
	TxBegins int64        `json:"tx_begins"`
	Commits  []int64      `json:"commits_by_path"`
	Aborts   []int64      `json:"aborts_by_cause"`
	CSEnds   int64        `json:"cs_ends"`
	CSWrites int64        `json:"cs_writes"`              // write-side critical sections completed
	LockWait int64        `json:"lock_wait_cycles"`       // spin/backoff wait cycles ending this window
	Matrix   []MatrixCell `json:"abort_matrix,omitempty"` // killer→victim deltas this window

	// Request-derived series (open-system runs only; filled by AddRequest
	// before Finish, zero/absent in live subscription callbacks).
	Arrivals      int64     `json:"arrivals"`
	Dequeues      int64     `json:"dequeues"`
	Drops         int64     `json:"drops"`
	Dones         int64     `json:"dones"`
	QueueDepthEnd int64     `json:"queue_depth_end"`
	InFlightEnd   int64     `json:"in_flight_end"`
	SojournP99    []float64 `json:"sojourn_p99_cycles,omitempty"` // per class, of requests done this window
}

// tlWin is the mutable per-window accumulator.
type tlWin struct {
	txBegins int64
	commits  [stats.NumCommitPaths]int64
	aborts   [stats.NumAbortCauses]int64
	csEnds   int64
	csWrites int64
	lockWait int64
	matrix   map[matrixKey]int64

	arrivals, dequeues, drops, dones int64
	sojourn                          []Samples // per class
}

// Timeline buckets trace events (and, for open-system runs, the request
// log) into fixed-width virtual-time windows. It implements
// machine.Tracer. Like CycleProf it is a pure event consumer: installing
// it never changes virtual time, and the report is deterministic.
//
// Subscribe registers a callback that receives each window once, in index
// order, when it is delivered: Advance(mark) delivers every window ending
// at or before mark, and Finish delivers the rest. A standalone Timeline
// delivers everything at Finish; ShardTimelines calls Advance from its
// machine-global watermark (a watermark, not a clock: the simulator
// delivers events in per-CPU time order), which gives the per-shard
// controller a bounded-delay live signal. Subscription callbacks see only
// the event-derived fields; the request-derived series exist only after
// Finish.
type Timeline struct {
	window  int64
	base    int64
	end     int64
	classes int

	wins      []*tlWin
	subs      []func(TimelineWindow)
	delivered int // windows already pushed to subscribers
}

// NewTimeline returns a collector with the given window width in cycles
// (values < 1 collapse to one giant window) and per-class sojourn slots
// for `classes` request classes (0 for closed-loop runs).
func NewTimeline(windowCycles int64, classes int) *Timeline {
	if windowCycles < 1 {
		windowCycles = 1 << 62
	}
	return &Timeline{window: windowCycles, classes: classes}
}

// Subscribe registers a live window consumer. Must be called before Start.
func (tl *Timeline) Subscribe(fn func(TimelineWindow)) {
	tl.subs = append(tl.subs, fn)
}

// Start fixes the window origin at base.
func (tl *Timeline) Start(base int64) {
	tl.base, tl.end = base, base
	tl.wins = tl.wins[:0]
	tl.delivered = 0
}

// win returns the accumulator for the window containing time t.
func (tl *Timeline) win(t int64) *tlWin {
	if t < tl.base {
		t = tl.base
	}
	w := int((t - tl.base) / tl.window)
	for w >= len(tl.wins) {
		tl.wins = append(tl.wins, &tlWin{})
	}
	return tl.wins[w]
}

// Event implements machine.Tracer.
func (tl *Timeline) Event(e machine.Event) {
	switch e.Kind {
	case machine.EvTxBegin:
		tl.win(e.Time).txBegins++
	case machine.EvTxAbort:
		w := tl.win(e.Time)
		cause, killer := htm.UnpackAbortAux(e.Aux)
		w.aborts[cause]++
		if w.matrix == nil {
			w.matrix = make(map[matrixKey]int64)
		}
		w.matrix[matrixKey{cause, killer, e.CPU}]++
	case machine.EvCSEnd:
		w := tl.win(e.Time)
		w.csEnds++
		write, path, _ := machine.UnpackCS(e.Aux)
		if write {
			w.csWrites++
		}
		if path < uint64(stats.NumCommitPaths) {
			w.commits[path]++
		}
	case machine.EvLockWait:
		// The wait occupies [Time-Aux, Time]; attribute it wholly to the
		// window in which it ends (the window split is not worth the cost
		// at controller granularity).
		tl.win(e.Time).lockWait += int64(e.Aux)
	}
}

// push converts window w and hands it to every subscriber.
func (tl *Timeline) push(w int) {
	tw := tl.snapshot(w)
	for _, fn := range tl.subs {
		fn(tw)
	}
}

// snapshot converts the accumulator of window w into its exported form
// (without the post-run queue-depth prefix sums — Report adds those).
func (tl *Timeline) snapshot(w int) TimelineWindow {
	src := tl.wins[w]
	tw := TimelineWindow{
		Index:       w,
		StartCycles: int64(w) * tl.window,
		TxBegins:    src.txBegins,
		Commits:     make([]int64, stats.NumCommitPaths),
		Aborts:      make([]int64, stats.NumAbortCauses),
		CSEnds:      src.csEnds,
		CSWrites:    src.csWrites,
		LockWait:    src.lockWait,
		Arrivals:    src.arrivals,
		Dequeues:    src.dequeues,
		Drops:       src.drops,
		Dones:       src.dones,
	}
	copy(tw.Commits, src.commits[:])
	copy(tw.Aborts, src.aborts[:])
	if len(src.matrix) > 0 {
		tw.Matrix = matrixCells(src.matrix)
	}
	if len(src.sojourn) > 0 {
		tw.SojournP99 = make([]float64, len(src.sojourn))
		for c := range src.sojourn {
			tw.SojournP99[c] = src.sojourn[c].Quantile(0.99)
		}
	}
	return tw
}

// Advance delivers (and counts as delivered) every window that ends at or
// before mark, materializing empty windows up to mark so that quiet
// periods still produce subscription ticks. ShardTimelines drives this
// from its machine-global watermark.
func (tl *Timeline) Advance(mark int64) {
	if mark > tl.base {
		tl.win(mark - 1)
	}
	for tl.delivered < len(tl.wins) {
		endT := tl.base + int64(tl.delivered+1)*tl.window
		if endT > mark {
			return
		}
		if len(tl.subs) > 0 {
			tl.push(tl.delivered)
		}
		tl.delivered++
	}
}

// AddRequest folds one request's lifecycle into the windows: arrival (and
// drop) at arrive, dequeue at dequeue, completion and sojourn sample at
// done. Closed-loop exporters call it after the run; the shard runner
// calls it live at completion time, which is safe because the watermark
// can never have passed a completion instant the completing CPU has just
// reached (delivered windows may undercount *arrivals* that happened
// while the request sat queued — the live signal a subscriber sees is the
// done/sojourn series, and Report recomputes every window from scratch).
func (tl *Timeline) AddRequest(class int, arrive, dequeue, done int64, dropped bool) {
	aw := tl.win(arrive)
	aw.arrivals++
	if dropped {
		aw.drops++
		return
	}
	tl.win(dequeue).dequeues++
	dw := tl.win(done)
	dw.dones++
	if class >= 0 && class < tl.classes {
		if dw.sojourn == nil {
			dw.sojourn = make([]Samples, tl.classes)
		}
		dw.sojourn[class].Add(done - arrive)
	}
}

// Finish closes the timeline at the machine's end time, delivering every
// remaining window to the subscribers.
func (tl *Timeline) Finish(end int64) {
	if end < tl.base {
		end = tl.base
	}
	tl.end = end
	// Make sure the window grid covers the whole run even if the tail was
	// event-free.
	if end > tl.base {
		tl.win(end - 1)
	}
	for tl.delivered < len(tl.wins) {
		if len(tl.subs) > 0 {
			tl.push(tl.delivered)
		}
		tl.delivered++
	}
}

// TimelineReport is the exportable time series.
type TimelineReport struct {
	WindowCycles int64            `json:"window_cycles"`
	BaseCycles   int64            `json:"base_cycles"`
	EndCycles    int64            `json:"end_cycles"`
	Classes      int              `json:"classes"`
	CommitPaths  []string         `json:"commit_paths"`
	AbortCauses  []string         `json:"abort_causes"`
	Windows      []TimelineWindow `json:"windows"`
}

// Report snapshots the timeline (call after Finish). Queue depth and
// in-flight counts at each window end are prefix sums over the
// request-derived series: depth = arrivals − drops − dequeues so far,
// in-flight = dequeues − dones so far.
func (tl *Timeline) Report() *TimelineReport {
	r := &TimelineReport{
		WindowCycles: tl.window,
		BaseCycles:   tl.base,
		EndCycles:    tl.end,
		Classes:      tl.classes,
		Windows:      make([]TimelineWindow, len(tl.wins)),
	}
	r.CommitPaths = make([]string, stats.NumCommitPaths)
	for i := range r.CommitPaths {
		r.CommitPaths[i] = stats.CommitPath(i).String()
	}
	r.AbortCauses = make([]string, stats.NumAbortCauses)
	for i := range r.AbortCauses {
		r.AbortCauses[i] = stats.AbortCause(i).String()
	}
	var depth, inFlight int64
	for w := range tl.wins {
		tw := tl.snapshot(w)
		depth += tw.Arrivals - tw.Drops - tw.Dequeues
		inFlight += tw.Dequeues - tw.Dones
		tw.QueueDepthEnd = depth
		tw.InFlightEnd = inFlight
		r.Windows[w] = tw
	}
	return r
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// pointRun is one measured execution of a point.
type pointRun struct {
	name string
	call string // the layer entry point that ran
	out  *outcome
	err  error // the point errored, panicked or failed a correctness check

	// Host time stamps: the call, the observe hook (machine built, not yet
	// populated), the first simulated event, and the return.
	start, observed, first, end time.Time
	allocBytes                  uint64

	// counters sums CPU.Counters over the point's machines after the run.
	counters machine.Counters
	// layer holds the event tallies of a traced run; nil when untraced.
	layer *layerCounts
}

func (r *pointRun) wall() time.Duration { return r.end.Sub(r.start) }

// setupTime is the host time before the point's first simulated event:
// schedule generation, machine.New and population.
func (r *pointRun) setupTime() time.Duration { return r.first.Sub(r.start) }

// simulateTime is the host time from the first simulated event to the
// return.
func (r *pointRun) simulateTime() time.Duration { return r.end.Sub(r.first) }

// boundary finds the end of a point's setup in an untraced run: it is
// installed by the observe hook, stamps the first simulated event, and
// then unhooks itself, so an untraced point observes exactly one event.
type boundary struct {
	m  *machine.Machine // nil for checker executions (nothing to unhook from)
	at time.Time
}

// Event implements machine.Tracer. Replacing the machine's tracer from
// inside Event is safe: the machine reads the tracer afresh per event and
// a MultiTracer iterates its own copy.
func (b *boundary) Event(machine.Event) {
	if !b.at.IsZero() {
		return
	}
	b.at = time.Now()
	if b.m != nil {
		b.m.SetTracer(withoutTracer(b.m.Tracer(), b))
	}
}

// withoutTracer returns t with self removed from it.
func withoutTracer(t, self machine.Tracer) machine.Tracer {
	if t == self {
		return nil
	}
	mt, ok := t.(machine.MultiTracer)
	if !ok {
		return t
	}
	var rest machine.MultiTracer
	for _, x := range mt {
		if x != self {
			rest = append(rest, x)
		}
	}
	if len(rest) == 1 {
		return rest[0]
	}
	return rest
}

// layerCounts tallies a traced point's event stream by layer.
type layerCounts struct {
	events     int64
	accessEvts int64 // read/write/CAS events
	pageFaults int64
	txBegins   int64
	txCommits  int64
	aborts     [stats.NumAbortCauses]int64
	csEnds     [stats.NumCommitPaths]int64
	quiesce    int64 // cycles between quiesce-start and quiesce-end, summed over CPUs
	lastEvent  int64 // summed over executions: virtual time of each one's last event
}

func (l *layerCounts) add(o *layerCounts) {
	l.events += o.events
	l.accessEvts += o.accessEvts
	l.pageFaults += o.pageFaults
	l.txBegins += o.txBegins
	l.txCommits += o.txCommits
	for i := range l.aborts {
		l.aborts[i] += o.aborts[i]
	}
	for i := range l.csEnds {
		l.csEnds[i] += o.csEnds[i]
	}
	l.quiesce += o.quiesce
	l.lastEvent += o.lastEvent
}

// layerTracer is the traced run's tracer for one machine (one checker
// execution): it keeps every tally of layerCounts and stamps the first
// event.
type layerTracer struct {
	layerCounts
	first        time.Time
	quiesceStart map[int]int64
}

func newLayerTracer() *layerTracer { return &layerTracer{quiesceStart: map[int]int64{}} }

// Event implements machine.Tracer.
func (t *layerTracer) Event(e machine.Event) {
	if t.events == 0 {
		t.first = time.Now()
	}
	t.events++
	if e.Time > t.lastEvent {
		t.lastEvent = e.Time
	}
	switch e.Kind {
	case machine.EvRead, machine.EvWrite, machine.EvCAS:
		t.accessEvts++
	case machine.EvPageFault:
		t.pageFaults++
	case machine.EvTxBegin:
		t.txBegins++
	case machine.EvTxCommit:
		t.txCommits++
	case machine.EvTxAbort:
		if cause, _ := htm.UnpackAbortAux(e.Aux); int(cause) < len(t.aborts) {
			t.aborts[cause]++
		}
	case machine.EvCSEnd:
		if _, path, _ := machine.UnpackCS(e.Aux); path < uint64(len(t.csEnds)) {
			t.csEnds[path]++
		}
	case machine.EvQuiesceStart:
		t.quiesceStart[e.CPU] = e.Time
	case machine.EvQuiesceEnd:
		if s, ok := t.quiesceStart[e.CPU]; ok {
			t.quiesce += e.Time - s
			delete(t.quiesceStart, e.CPU)
		}
	}
}

// runPoint measures one point. The heap is collected first, outside the
// timed region, so a point is not charged for the previous point's
// garbage. traced installs a layerTracer on every machine (and checker
// execution) in place of the one-event boundary probe.
func runPoint(p point, traced, bare bool) pointRun {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	r := pointRun{name: p.name, call: p.call}
	if bare {
		r.call = p.bareCall
	}
	var machines []*machine.Machine
	var bounds []*boundary
	var tracers []*layerTracer
	h := hooks{bare: bare}
	h.observe = func(m *machine.Machine) {
		if r.observed.IsZero() {
			r.observed = time.Now()
		}
		machines = append(machines, m)
		if traced {
			t := newLayerTracer()
			tracers = append(tracers, t)
			m.SetTracer(t)
			return
		}
		b := &boundary{m: m}
		bounds = append(bounds, b)
		m.SetTracer(b)
	}
	h.execTracer = func() machine.Tracer {
		if r.observed.IsZero() {
			r.observed = time.Now()
		}
		if traced {
			t := newLayerTracer()
			tracers = append(tracers, t)
			return t
		}
		if len(bounds) > 0 {
			return nil // only the first execution's first event is needed
		}
		b := &boundary{}
		bounds = append(bounds, b)
		return b
	}

	r.start = time.Now()
	r.out, r.err = callPoint(p, h)
	r.end = time.Now()

	runtime.ReadMemStats(&ms)
	r.allocBytes = ms.TotalAlloc - alloc0
	if r.observed.IsZero() {
		r.observed = r.start
	}
	switch {
	case len(bounds) > 0 && !bounds[0].at.IsZero():
		r.first = bounds[0].at
	case len(tracers) > 0 && !tracers[0].first.IsZero():
		r.first = tracers[0].first
	default:
		r.first = r.observed
	}
	for _, m := range machines {
		for i := 0; i < m.Cfg.CPUs; i++ {
			c := &m.CPU(i).Counters
			r.counters.Reads += c.Reads
			r.counters.Writes += c.Writes
			r.counters.CASes += c.CASes
			r.counters.TLBMisses += c.TLBMisses
			r.counters.PageFaults += c.PageFaults
			r.counters.Interrupts += c.Interrupts
		}
	}
	if traced {
		r.layer = &layerCounts{}
		for _, t := range tracers {
			r.layer.add(&t.layerCounts)
		}
	}
	if r.err == nil && r.out.problem != "" {
		r.err = fmt.Errorf("%s", r.out.problem)
	}
	return r
}

// callPoint runs a point, turning a panic into an error so one failing
// point is counted instead of ending the run. An HTM abort signal can only
// escape a simulation through a simulator bug; it is re-raised, as every
// recover on a transaction path must.
func callPoint(p point, h hooks) (out *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			if htm.IsAbortSignal(r) {
				panic(r)
			}
			out, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return p.run(h)
}

// iteration is one pass over a workload's points.
type iteration struct {
	runs     []pointRun
	problems []string // failed points and failed workload gates
}

// runIteration runs every point of w once, serially, and applies the
// workload gate when every point produced an outcome.
func runIteration(w *workload, traced, bare bool) iteration {
	var it iteration
	outs := make([]*outcome, 0, len(w.points))
	for _, p := range w.points {
		r := runPoint(p, traced, bare)
		it.runs = append(it.runs, r)
		if r.err != nil {
			it.problems = append(it.problems, fmt.Sprintf("%s %s: %v", w.name, r.name, r.err))
		}
		if r.out != nil {
			outs = append(outs, r.out)
		}
	}
	if len(outs) == len(w.points) {
		it.problems = append(it.problems, w.gate(outs)...)
	}
	return it
}

func (it *iteration) sum(f func(*pointRun) time.Duration) time.Duration {
	var d time.Duration
	for i := range it.runs {
		d += f(&it.runs[i])
	}
	return d
}

func (it *iteration) wall() time.Duration { return it.sum((*pointRun).wall) }

func (it *iteration) setup() time.Duration { return it.sum((*pointRun).setupTime) }

func (it *iteration) allocBytes() uint64 {
	var n uint64
	for _, r := range it.runs {
		n += r.allocBytes
	}
	return n
}

// machineRuns counts the simulations the iteration completed: one per
// point, or one per checker execution.
func (it *iteration) machineRuns() int64 {
	var n int64
	for _, r := range it.runs {
		switch {
		case r.out == nil:
		case r.out.executions > 0:
			n += r.out.executions
		default:
			n++
		}
	}
	return n
}

// digests lists every point's simulated-output digest ("" for a point
// without an outcome).
func (it *iteration) digests() []string {
	d := make([]string, len(it.runs))
	for i, r := range it.runs {
		if r.out != nil {
			d[i] = r.out.digest
		}
	}
	return d
}

// sameOutputs compares two iterations point by point and describes the
// first point whose simulated outputs differ.
func sameOutputs(a, b iteration, what string) []string {
	da, db := a.digests(), b.digests()
	for i := range da {
		if da[i] != db[i] {
			return []string{fmt.Sprintf("%s: point %s simulated different outputs", what, a.runs[i].name)}
		}
	}
	return nil
}

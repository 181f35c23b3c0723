package check

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/simsan"
)

// TraceHook, when non-nil, supplies a fresh tracer for every controlled
// execution the explorer runs. It exists for the engine differential test
// harness (internal/enginediff), which fingerprints the event stream of
// each explored schedule; production explorations leave it nil.
var TraceHook func() machine.Tracer

// explorer runs the executions of one exploration on one simulated
// system, reset before every execution (htm.System.Reset) instead of
// rebuilt. After the reset each execution builds the lock and runs the
// program's setup in the same order as on a new machine, so every address,
// event and outcome is the same; Replay runs its execution on a new
// system, which makes it the reference a reset execution must match.
type explorer struct {
	cfg  Config
	prog program
	sys  *htm.System
	san  *simsan.Sanitizer // nil unless cfg.Sanitize
}

// systemConfig is what an exploration's system is built from. Memory is
// small and paging is off: the checker cares about interleavings, not
// timing.
func systemConfig(cfg Config) (machine.Config, htm.Config) {
	return machine.Config{CPUs: cfg.Threads, MemWords: 1 << 12, Seed: 1},
		htm.Config{UnsafeLoseDoomAtResume: cfg.Mutation == MutLoseDoomAtResume}
}

// newExplorer returns an explorer for cfg on a system from htm.Take, so
// the first execution of an exploration starts as cheaply as the rest: an
// hrwle-check sweep runs one short exploration per scheme and program, and
// building a system for each start cost more host time before the first
// simulated event than building one per execution did. The exploration
// hands the system back with Release when it finishes.
func newExplorer(cfg Config) *explorer {
	return explorerOn(cfg, htm.Take(systemConfig(cfg)))
}

func explorerOn(cfg Config, sys *htm.System) *explorer {
	x := &explorer{cfg: cfg, prog: programFor(cfg.Program), sys: sys}
	if cfg.Sanitize {
		x.san = simsan.New(simsan.Options{CPUs: cfg.Threads})
	}
	return x
}

// runOne executes the configured program once under the given controlled
// schedule and returns the execution's outcome label (litmus programs only,
// "" otherwise) and the first violated invariant ("" if none).
func (x *explorer) runOne(sc *ctrl) (outcome, violation string, points int, truncated bool) {
	cfg, p, sys := x.cfg, x.prog, x.sys
	sys.Reset()
	m := sys.M
	ctx := &runCtx{cfg: cfg, m: m, sys: sys, lock: buildLock(sys, cfg)}
	p.setup(ctx)
	san := x.san
	if san != nil {
		san.Reset()
		sys.SetTraceAccesses(true)
	}
	var hook machine.Tracer
	if TraceHook != nil {
		hook = TraceHook()
	}
	switch {
	case san != nil && hook != nil:
		m.SetTracer(machine.MultiTracer{san, hook})
	case san != nil:
		m.SetTracer(san)
	case hook != nil:
		m.SetTracer(hook)
	}
	m.SetScheduler(sc)
	m.Run(cfg.Threads, func(c *machine.CPU) {
		p.body(ctx, sys.Thread(c.ID), c)
	})
	p.check(ctx)
	if san != nil {
		rep := san.Finish()
		for _, r := range rep.Races {
			ctx.violate("simsan: %s", r)
		}
	}
	if len(ctx.violations) > 0 {
		violation = ctx.violations[0]
	}
	return ctx.outcome, violation, len(sc.trace), sc.truncated
}

// Explore searches cfg's schedule space for an invariant violation. It
// spends half the budget on preemption-bounded exhaustive DFS around the
// default schedule and the rest on seed-swept random walks, stopping at
// the first violation.
func Explore(cfg Config) Report {
	cfg = cfg.withDefaults()
	rep := Report{Config: cfg}

	x := newExplorer(cfg)
	rep.Violation = x.explore(&rep)
	x.sys.Release()
	return rep
}

// explore runs Explore's two phases on x, stopping at the first violation.
func (x *explorer) explore(rep *Report) *Violation {
	cfg := x.cfg
	if v := x.exploreDFS(cfg.MaxExecutions/2, rep); v != nil {
		return v
	}
	for i := 0; rep.Executions < cfg.MaxExecutions; i++ {
		spec := schedule{Kind: "walk", Seed: cfg.Seed + uint64(i)}
		if v := x.runRecorded(spec, rep); v != nil {
			return v
		}
	}
	return nil
}

// runRecorded runs one schedule, accounts it in rep, and wraps any
// violation with its replay token.
func (x *explorer) runRecorded(spec schedule, rep *Report) *Violation {
	sc := newCtrl(x.cfg, spec)
	_, desc, points, truncated := x.runOne(sc)
	rep.Executions++
	rep.Points += int64(points)
	if truncated {
		rep.Truncated++
	}
	if desc == "" {
		return nil
	}
	return &Violation{Desc: desc, Token: encodeToken(x.cfg, spec)}
}

// exploreDFS enumerates schedules that deviate from the default
// minimum-virtual-time policy at up to cfg.Preemptions decision points,
// depth-first, last decision point first. The enumeration is the classic
// stateless-model-checking backtracking walk: run one execution, then bump
// the deepest decision that still has an untried alternative within the
// deviation budget, truncating everything after it.
func (x *explorer) exploreDFS(budget int, rep *Report) *Violation {
	cfg := x.cfg
	prefix := []int{}
	for rep.Executions < budget {
		spec := schedule{Kind: "prefix", Choices: prefix}
		sc := newCtrl(cfg, spec)
		_, desc, points, truncated := x.runOne(sc)
		rep.Executions++
		rep.Points += int64(points)
		if truncated {
			rep.Truncated++
		}
		if desc != "" {
			return &Violation{Desc: desc, Token: encodeToken(cfg, spec)}
		}
		prefix = nextPrefix(sc.trace, cfg.Preemptions)
		if prefix == nil {
			rep.Exhausted = true
			return nil
		}
	}
	return nil
}

// nextPrefix computes the DFS successor of the schedule recorded in trace:
// the longest prefix whose last choice can be advanced to its next
// alternative without exceeding the deviation bound. It returns nil when
// the bounded schedule space is exhausted.
func nextPrefix(trace []choicePoint, bound int) []int {
	// dev[i] = deviations from the default policy among trace[0:i].
	dev := make([]int, len(trace)+1)
	for i, p := range trace {
		d := 0
		if p.chosen != p.def {
			d = 1
		}
		dev[i+1] = dev[i] + d
	}
	for i := len(trace) - 1; i >= 0; i-- {
		// Every alternative beyond the current choice is a deviation
		// (the ordering is: default first, then the rest ascending).
		if dev[i]+1 > bound {
			continue
		}
		next := nextAlt(trace[i])
		if next < 0 {
			continue
		}
		out := make([]int, i+1)
		for j := 0; j < i; j++ {
			out[j] = trace[j].chosen
		}
		out[i] = next
		return out
	}
	return nil
}

// nextAlt returns the alternative after p.chosen in the per-point ordering
// (default first, then indices ascending, skipping the default), or -1.
func nextAlt(p choicePoint) int {
	start := 0
	if p.chosen != p.def {
		start = p.chosen + 1
	}
	for a := start; a < p.n; a++ {
		if a != p.def {
			return a
		}
	}
	return -1
}

package check

import (
	"fmt"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// Litmus seeds: tiny fixed-shape programs, in the style of hardware litmus
// tests, that pin down how transactional and non-transactional code is
// allowed to interact under each lock scheme. Unlike the closed programs in
// program.go, a litmus program does not judge itself: every execution
// produces an *outcome label* (the reader's observed values), and
// EnumerateOutcomes exhausts the bounded schedule space to compute the set
// of labels a scheme can produce. The allowed-outcome sets live in
// litmus_test.go; future scheme work inherits both the shapes and the sets.
//
// All shapes run two threads — CPU 0 writes, CPU 1 observes — over two
// words x and y on distinct cache lines, so a torn commit is visible
// between them:
//
//   - litmus-pub (publication): the writer publishes x and then y in two
//     separate write sections; the reader's single read section loads y
//     then x. Seeing the flag (y=1) without the data (x=0) is forbidden.
//   - litmus-agg (aggregate-store visibility): the writer stores x and y
//     inside one write section; the reader loads x then y in one read
//     section. Commits are aggregate, so only x=y snapshots are allowed.
//   - litmus-susp (suspend-window race): litmus-agg with the writer's
//     section widened by private work between the stores and the reader
//     loading in reverse (y then x) — the shape of paper §3 Fig. 2, where
//     the reader's section overlaps the writer's suspended quiescence scan
//     and must either be waited for or doom the speculation.
//   - litmus-upd (lost update): both threads run a read-modify-write
//     section incrementing x; the only allowed final state is x=2.
//   - litmus-sub (subscription): CPU 0's write section stores x and then a
//     filler block that overflows the HTM (and ROT) write capacity, so the
//     section deterministically falls through to the non-speculative path;
//     CPU 1's write section is a small read-modify-write (y = x+1) that can
//     elide. The value outcomes are the two serializations regardless of
//     subscription discipline — a lazily subscribing CPU 1 that observes
//     CPU 0's mid-section store commits the same y=2 a legal serialization
//     produces. Only the simsan race sanitizer (Config.Sanitize) separates
//     the two, which is the point of the shape: it is the validation
//     program for the unsafe-lazy-subscription mutation.
type litmusSpec struct {
	name string
	// setup optionally allocates extra state after the common x/y words.
	setup func(ctx *runCtx)
	body  func(ctx *runCtx, th *htm.Thread, c *machine.CPU)
	// label renders the outcome from the reader's observations and the
	// final memory state after all threads finished.
	label func(ctx *runCtx) string
}

// LitmusPrograms returns the litmus program names, runnable through the
// same Config.Program field as the closed programs. They are deliberately
// not part of Programs(): the engine differential harness captures
// Schemes()×Programs() golden traces, while litmus outcome sets are pinned
// by their own exhaustive enumerations in litmus_test.go.
func LitmusPrograms() []string {
	return []string{"litmus-pub", "litmus-agg", "litmus-susp", "litmus-upd", "litmus-sub"}
}

// litSubFillLines is litmus-sub's filler size in cache lines. With the
// default 64-line write budget, the filler plus x overflows both the HTM
// and ROT write sets, forcing a persistent capacity abort on each
// speculative path and hence the non-speculative fallback.
const litSubFillLines = 68

// litSubDelay is the virtual-cycle delay at the top of CPU 1's elided
// section, sized to cover CPU 0's full abort-abort-fallback sequence. Under
// the default minimum-virtual-time policy it makes CPU 0 run its whole
// write section — including the fallback store to x — between CPU 1's
// pre-section lock-word check and its load of x, which is exactly the
// window an unsafe lazy subscription fails to close: the default schedule
// itself becomes the race witness, so the sanitizer catches the mutation
// without needing a rare interleaving. (With eager subscription the same
// schedule is clean: CPU 0's fallback acquisition dooms the section, and
// the retry re-subscribes after CPU 0's release.)
const litSubDelay = 16384

func litmusSpecs() []litmusSpec {
	return []litmusSpec{
		{
			name: "litmus-pub",
			body: func(ctx *runCtx, th *htm.Thread, c *machine.CPU) {
				switch c.ID {
				case 0:
					ctx.lock.Write(th, func() { th.Store(ctx.litX, 1) })
					ctx.lock.Write(th, func() { th.Store(ctx.litY, 1) })
				case 1:
					var r1, r2 uint64
					ctx.lock.Read(th, func() {
						r1 = th.Load(ctx.litY)
						r2 = th.Load(ctx.litX)
					})
					ctx.litR1, ctx.litR2 = r1, r2
				}
			},
			label: func(ctx *runCtx) string {
				return fmt.Sprintf("y=%d x=%d", ctx.litR1, ctx.litR2)
			},
		},
		{
			name: "litmus-agg",
			body: func(ctx *runCtx, th *htm.Thread, c *machine.CPU) {
				switch c.ID {
				case 0:
					ctx.lock.Write(th, func() {
						th.Store(ctx.litX, 1)
						th.Store(ctx.litY, 1)
					})
				case 1:
					var r1, r2 uint64
					ctx.lock.Read(th, func() {
						r1 = th.Load(ctx.litX)
						r2 = th.Load(ctx.litY)
					})
					ctx.litR1, ctx.litR2 = r1, r2
				}
			},
			label: func(ctx *runCtx) string {
				return fmt.Sprintf("x=%d y=%d", ctx.litR1, ctx.litR2)
			},
		},
		{
			name: "litmus-susp",
			body: func(ctx *runCtx, th *htm.Thread, c *machine.CPU) {
				switch c.ID {
				case 0:
					ctx.lock.Write(th, func() {
						th.Store(ctx.litX, 1)
						// Widen the speculation window so the reader's
						// section can land inside the writer's suspended
						// quiescence scan.
						c.Work(64)
						th.Store(ctx.litY, 1)
					})
				case 1:
					var r1, r2 uint64
					ctx.lock.Read(th, func() {
						r1 = th.Load(ctx.litY)
						r2 = th.Load(ctx.litX)
					})
					ctx.litR1, ctx.litR2 = r1, r2
				}
			},
			label: func(ctx *runCtx) string {
				return fmt.Sprintf("y=%d x=%d", ctx.litR1, ctx.litR2)
			},
		},
		{
			name: "litmus-upd",
			body: func(ctx *runCtx, th *htm.Thread, c *machine.CPU) {
				if c.ID > 1 {
					return
				}
				ctx.lock.Write(th, func() {
					th.Store(ctx.litX, th.Load(ctx.litX)+1)
				})
			},
			label: func(ctx *runCtx) string {
				return fmt.Sprintf("x=%d", ctx.m.Peek(ctx.litX))
			},
		},
		{
			name: "litmus-sub",
			setup: func(ctx *runCtx) {
				lw := int64(ctx.m.Cfg.LineWords)
				ctx.litF = ctx.m.AllocRawAligned(litSubFillLines * lw)
			},
			body: func(ctx *runCtx, th *htm.Thread, c *machine.CPU) {
				switch c.ID {
				case 0:
					lw := machine.Addr(ctx.m.Cfg.LineWords)
					ctx.lock.Write(th, func() {
						th.Store(ctx.litX, 1)
						// One store per line: overflow the write capacity
						// so the section reaches the NS path. The fillers
						// are never touched by CPU 1, so the only shared
						// data word is x.
						for i := machine.Addr(0); i < litSubFillLines; i++ {
							th.Store(ctx.litF+i*lw, 1)
						}
					})
				case 1:
					ctx.lock.Write(th, func() {
						c.Work(litSubDelay)
						th.Store(ctx.litY, th.Load(ctx.litX)+1)
					})
				}
			},
			label: func(ctx *runCtx) string {
				return fmt.Sprintf("x=%d y=%d", ctx.m.Peek(ctx.litX), ctx.m.Peek(ctx.litY))
			},
		},
	}
}

// litmusProgram resolves a litmus name to a runnable program. The shapes
// are fixed: cfg.Ops is ignored and threads beyond the first two idle.
func litmusProgram(name string) (program, bool) {
	for _, spec := range litmusSpecs() {
		if spec.name != name {
			continue
		}
		spec := spec
		return program{
			setup: func(ctx *runCtx) {
				ctx.litX = ctx.m.AllocRawAligned(1)
				ctx.litY = ctx.m.AllocRawAligned(1)
				if spec.setup != nil {
					spec.setup(ctx)
				}
			},
			body: func(ctx *runCtx, th *htm.Thread, c *machine.CPU) {
				if c.ID > 1 {
					return
				}
				spec.body(ctx, th, c)
			},
			check: func(ctx *runCtx) {
				ctx.outcome = spec.label(ctx)
			},
		}, true
	}
	return program{}, false
}

// EnumerateOutcomes explores cfg's schedule space and returns how often
// each outcome label was observed, instead of stopping at the first
// violation the way Explore does. It runs the preemption-bounded DFS for
// up to half the execution budget (the report's Exhausted flag states
// whether the whole bounded space was covered), then spends the rest on
// seed-swept burst walks: fine-grained deviations around the default
// schedule cannot reorder whole critical sections (running a long write
// path to completion first deviates at every decision point, blowing any
// preemption bound), but a burst walk favoring one CPU can, which is what
// adds the coarse-grained serialization witnesses to the set. Capping the
// DFS phase keeps the walk phase alive even for shapes whose bounded tree
// outgrows any reasonable budget (litmus-sub's delayed reader keeps both
// CPUs runnable across the writer's whole fallback section, multiplying
// the decision points). Both phases are deterministic, so the returned
// set is a pure function of cfg.
func EnumerateOutcomes(cfg Config) (map[string]int, Report) {
	cfg = cfg.withDefaults()
	rep := Report{Config: cfg}
	outcomes := map[string]int{}
	x := newExplorer(cfg)
	record := func(spec schedule) *ctrl {
		sc := newCtrl(cfg, spec)
		out, desc, points, truncated := x.runOne(sc)
		rep.Executions++
		rep.Points += int64(points)
		if truncated {
			rep.Truncated++
		}
		outcomes[out]++
		if desc != "" && rep.Violation == nil {
			rep.Violation = &Violation{Desc: desc, Token: encodeToken(cfg, spec)}
		}
		return sc
	}
	prefix := []int{}
	for rep.Executions < cfg.MaxExecutions/2 {
		sc := record(schedule{Kind: "prefix", Choices: prefix})
		prefix = nextPrefix(sc.trace, cfg.Preemptions)
		if prefix == nil {
			rep.Exhausted = true
			break
		}
	}
	for i := 0; rep.Executions < cfg.MaxExecutions; i++ {
		record(schedule{Kind: "walk", Seed: cfg.Seed + uint64(i)})
	}
	x.sys.Release()
	return outcomes, rep
}

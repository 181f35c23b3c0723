package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"hrwle/internal/check"
	"hrwle/internal/harness"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/service"
	"hrwle/internal/shard"
)

// point is one independently measured simulation: it builds its own
// machine(s) from its configuration, runs to completion and returns its
// simulated outcome. Points of one workload run serially.
type point struct {
	name string
	// call names the layer entry point the point runs (its root span in
	// a traced run), and bareCall the one it runs without the workload's
	// observer.
	call, bareCall string
	run            func(h hooks) (*outcome, error)
}

// hooks are the benchmark's only way into a running point.
type hooks struct {
	// observe receives every machine a harness, service or shard point
	// builds, right after machine.New and before population.
	observe func(*machine.Machine)
	// execTracer supplies the tracer of each checker execution (installed
	// as check.TraceHook for the duration of a check point). It is called
	// after the execution's machine is built and its program set up.
	execTracer func() machine.Tracer
	// bare runs the point without the observer its workload exists to
	// measure (the profiler on serve-profiled, the sanitizer on
	// check-sanitized); the simulated outputs must not change.
	bare bool
}

// outcome is what a point simulated. Everything in it is a pure function
// of the point's configuration.
type outcome struct {
	// digest renders every simulated output of the point; traced,
	// untraced and repeated runs must produce the same digest.
	digest string
	// cycles is the point's makespan; 0 for checker points, whose
	// executions are timed only by the traced run.
	cycles int64
	// ops counts closed-loop critical sections (fig5-mini).
	ops int64
	// svc holds the open-loop service metrics (serve-profiled, shard-knee).
	svc *obs.ServiceMetrics
	// shard-knee only.
	shardSwitches, crossTx int64
	// check-sanitized only.
	executions, decisionPoints, truncated int64
	// races is 1 when the checker's violation is a sanitizer race.
	races int64
	// problem is a failed correctness check local to the point (a
	// checker violation, a race, a broken profiler conservation); empty
	// when the point is correct.
	problem string
}

// workload is one named benchmark input: a fixed point list plus the
// workload-level correctness gate.
type workload struct {
	name   string
	points []point
	// gate checks the outcomes of one full pass over points (in point
	// order) and returns one message per failed check.
	gate func(outs []*outcome) []string
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig5-mini", "shard-knee", "serve-profiled", "check-sanitized"}

// newWorkload builds a workload's points from the seed. full selects the
// measured size; the reduced size only keeps the benchmark's own tests
// fast, and the gates that pin recorded numbers apply at full size only.
func newWorkload(name string, seed uint64, full bool) (*workload, error) {
	switch name {
	case "fig5-mini":
		return fig5Mini(full), nil
	case "shard-knee":
		return shardKnee(seed, full)
	case "serve-profiled":
		return serveProfiled(seed, full)
	case "check-sanitized":
		return checkSanitized(seed, full), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fig5SimCycles is the summed makespan of the fixed fig5 mini-sweep,
// recorded in every results/BENCH_*.json since the seed.
const fig5SimCycles = 38_977_216

// fig5Mini is the fixed 24-point harness.BenchSpec sweep, closed loop. Its
// inputs do not depend on the seed: it continues the BENCH trajectory.
func fig5Mini(full bool) *workload {
	spec := harness.BenchSpec()
	scale := harness.BenchScale
	if !full {
		spec.Schemes = []string{"RW-LE_OPT", "SGL"}
		spec.Threads = []int{2}
		spec.WritePcts = []int{90}
		scale = 0.01
	}
	w := &workload{name: "fig5-mini"}
	// Same order as the harness sweep: write share, then threads, then
	// scheme.
	for _, wp := range spec.WritePcts {
		for _, n := range spec.Threads {
			for _, s := range spec.Schemes {
				w.points = append(w.points, point{
					name: fmt.Sprintf("%s/n=%d/w=%d", s, n, wp),
					call: "harness.FigureSpec.Point",
					run: func(h hooks) (*outcome, error) {
						r := spec.Point(harness.PointCtx{Observe: h.observe}, s, n, wp, scale)
						return &outcome{
							digest: fmt.Sprintf("cycles=%d %+v", r.Cycles, r.B),
							cycles: r.Cycles,
							ops:    r.B.Ops,
						}, nil
					},
				})
			}
		}
	}
	w.gate = func(outs []*outcome) []string {
		if !full {
			return nil
		}
		var sum int64
		for _, o := range outs {
			sum += o.cycles
		}
		if sum != fig5SimCycles {
			return []string{fmt.Sprintf("fig5-mini sim_cycles = %d, recorded %d", sum, fig5SimCycles)}
		}
		return nil
	}
	return w
}

// shardKneeSkews are the two key skews of the shard-knee workload: the
// uniform point skips the Zipf table's cost, the hot-key point pays it.
var shardKneeSkews = []float64{0, 1.2}

// shardKnee runs the 2M-key, 64-CPU, 16-shard store at 2e7 req/s for the
// adaptive controller and each of its fixed rungs, open loop.
func shardKnee(seed uint64, full bool) (*workload, error) {
	base := harness.DefaultShardSpec().Base
	base.Shards = 16
	base.Seed = seed
	if !full {
		base.Servers = 8
		base.Shards = 4
		base.Requests = 300
		base.Keys.Universe = 1 << 12
	}
	w := &workload{name: "shard-knee"}
	var keys []shardKey
	for _, scheme := range harness.ShardSchemes() {
		for _, skew := range shardKneeSkews {
			cfg := base
			cfg.Keys.Skew = skew
			keys = append(keys, shardKey{scheme, cfg.Shards, skew})
			w.points = append(w.points, point{
				name: fmt.Sprintf("%s/shards=%d/s=%.1f", scheme, cfg.Shards, skew),
				call: "shard.Run",
				run: func(h hooks) (*outcome, error) {
					pal := harness.ShardPalette()
					if scheme != harness.ShardAdaptive {
						pal = []shard.Scheme{{Name: scheme, Mk: harness.SchemeFactory(scheme)}}
					}
					res, err := shard.Run(cfg, pal, h.observe)
					if err != nil {
						return nil, err
					}
					digest, err := json.Marshal(res)
					if err != nil {
						return nil, err
					}
					return &outcome{
						digest:        string(digest),
						cycles:        res.Service.MakespanCycles,
						svc:           res.Service,
						shardSwitches: int64(len(res.Switches)),
						crossTx:       res.CrossTx,
					}, nil
				},
			})
		}
	}
	w.gate = func(outs []*outcome) []string {
		if !full || seed != 1 {
			return nil
		}
		return matchShardRecord(outs, keys)
	}
	return w, nil
}

// serveProfiled runs the hrwle-prof default: every serve workload at its
// knee rate under the default serve schemes, 8 servers, obs.Profile
// attached, open loop.
func serveProfiled(seed uint64, full bool) (*workload, error) {
	w := &workload{name: "serve-profiled"}
	for _, wl := range harness.ServeWorkloads() {
		spec, err := harness.DefaultProfSpec(wl)
		if err != nil {
			return nil, err
		}
		for _, scheme := range spec.Schemes {
			cfg := spec.Base
			cfg.Arrivals.RatePerSec = spec.RatePerSec
			cfg.Seed = seed
			if !full {
				cfg.Requests = 200
			}
			w.points = append(w.points, point{
				name:     fmt.Sprintf("%s/%s", wl, scheme),
				call:     "service.RunPointProfiled",
				bareCall: "service.RunPoint",
				run: func(h hooks) (*outcome, error) {
					if h.bare {
						m, _, err := service.RunPoint(cfg, scheme, harness.SchemeFactory(scheme), h.observe)
						if err != nil {
							return nil, err
						}
						return serveOutcome(m)
					}
					prof := obs.NewProfile(spec.WindowCycles, len(cfg.Classes))
					m, _, err := service.RunPointProfiled(cfg, scheme, harness.SchemeFactory(scheme), h.observe, prof)
					if err != nil {
						return nil, err
					}
					o, err := serveOutcome(m)
					if err != nil {
						return nil, err
					}
					rep := prof.Report(scheme, wl)
					if got, want := rep.Cycles.Conservation(); got != want {
						o.problem = fmt.Sprintf("profiler conservation: %d cycles attributed, CPUs x sim_cycles = %d", got, want)
					}
					return o, nil
				},
			})
		}
	}
	w.gate = func([]*outcome) []string { return nil }
	return w, nil
}

// serveOutcome digests the service metrics only, so profiled and bare
// runs of one point must agree.
func serveOutcome(m *obs.ServiceMetrics) (*outcome, error) {
	digest, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return &outcome{digest: string(digest), cycles: m.MakespanCycles, svc: m}, nil
}

// checkDecisionPoints is the decision-point count of the sanitized
// hrwle-check -all sweep at seed 1.
const checkDecisionPoints = 2_853_374

// checkSanitized is the hrwle-check -all -sanitize sweep: every checker
// scheme against the closed programs and the litmus shapes, one Explore
// call per pair.
func checkSanitized(seed uint64, full bool) *workload {
	programs := append(check.Programs(), check.LitmusPrograms()...)
	litmus := map[string]bool{}
	for _, p := range check.LitmusPrograms() {
		litmus[p] = true
	}
	w := &workload{name: "check-sanitized"}
	for _, scheme := range check.Schemes() {
		for _, prog := range programs {
			cfg := check.Config{Scheme: scheme, Program: prog, Seed: seed}
			if litmus[prog] {
				// As in hrwle-check -all: litmus shapes are two threads with
				// one section each.
				cfg.Threads, cfg.Ops = 2, 1
			}
			if !full {
				cfg.MaxExecutions = 6
			}
			w.points = append(w.points, point{
				name:     scheme + "/" + prog,
				call:     "check.Explore.sanitized",
				bareCall: "check.Explore",
				run: func(h hooks) (*outcome, error) {
					c := cfg
					c.Sanitize = !h.bare
					check.TraceHook = h.execTracer
					defer func() { check.TraceHook = nil }()
					rep := check.Explore(c)
					o := &outcome{
						digest:         fmt.Sprintf("executions=%d points=%d truncated=%d exhausted=%v", rep.Executions, rep.Points, rep.Truncated, rep.Exhausted),
						executions:     int64(rep.Executions),
						decisionPoints: rep.Points,
						truncated:      int64(rep.Truncated),
					}
					if v := rep.Violation; v != nil {
						o.problem = "violation: " + v.Desc + " (replay " + v.Token + ")"
						o.digest += " violation=" + v.Token
						if strings.HasPrefix(v.Desc, "simsan:") {
							o.races = 1
						}
					}
					return o, nil
				},
			})
		}
	}
	w.gate = func(outs []*outcome) []string {
		if !full || seed != 1 {
			return nil
		}
		var sum int64
		for _, o := range outs {
			sum += o.decisionPoints
		}
		if sum != checkDecisionPoints {
			return []string{fmt.Sprintf("check-sanitized decision points = %d, recorded %d", sum, checkDecisionPoints)}
		}
		return nil
	}
	return w
}

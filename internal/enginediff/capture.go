// Package enginediff is the differential equivalence harness that pins the
// simulator engine's observable behavior across engine rewrites. It runs a
// mini version of every figure sweep plus the internal/check DFS and
// random-walk explorations, and folds four kinds of observables into a
// committed golden capture (testdata/engine_golden.json):
//
//   - the complete trace-event stream of every measurement point and every
//     explored schedule, fingerprinted event by event (time, CPU, kind,
//     address, aux — any reordering or value drift changes the hash);
//   - the formatted figure tables (Print bytes);
//   - the checker's reports and violation replay tokens, including the two
//     seeded mutations that must keep producing the identical token;
//   - every litmus program's outcome set under every scheme, and one
//     sanitized exploration per scheme, whose fingerprint covers the
//     HTM-level data accesses and allocator events that only sanitized
//     runs trace;
//   - a wide-machine program on 65, 128 and 256 CPUs, the only capture
//     whose CPUs straddle ID 64, where the per-line sharer and reader
//     bitmaps leave their first word.
//
// The capture in testdata was recorded on the goroutine-per-CPU
// token-passing engine immediately before it was replaced by the inline
// coroutine scheduler loop; the test suite asserts the current engine
// reproduces it bit for bit. The wide-machine entries were added later,
// recorded on the layout whose per-line sharer and reader bitmaps were
// four inline words, before those records kept one inline word and a side
// table. The litmus and sanitized entries were added later still,
// recorded while the checker built a fresh machine for every execution,
// before an exploration reused one machine across its executions.
// Regenerate with
// `go test ./internal/enginediff -update` ONLY when an intentional
// simulation-semantics change (never a pure engine change) alters results.
package enginediff

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"hrwle/internal/check"
	"hrwle/internal/harness"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// streamHash folds trace events into an FNV-1a fingerprint as they arrive.
// It retains nothing, so whole-sweep streams cost no memory, and any
// difference in event order, count or content changes the final sum.
type streamHash struct {
	sum    uint64
	events int64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newStreamHash() *streamHash { return &streamHash{sum: fnvOffset} }

func (h *streamHash) word(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum = (h.sum ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

// Event implements machine.Tracer.
func (h *streamHash) Event(e machine.Event) {
	h.events++
	h.word(uint64(e.Time))
	h.word(uint64(e.CPU)<<8 | uint64(e.Kind))
	h.word(uint64(e.Addr))
	h.word(e.Aux)
}

func (h *streamHash) hex() string { return fmt.Sprintf("%016x", h.sum) }

// PointCapture is the observable record of one measurement point: the
// virtual-time result plus the event-stream fingerprint of every machine
// the point constructed.
type PointCapture struct {
	Scheme     string `json:"scheme"`
	Threads    int    `json:"threads"`
	WritePct   int    `json:"write_pct"`
	Cycles     int64  `json:"cycles"`
	Ops        int64  `json:"ops"`
	Events     int64  `json:"events"`
	StreamHash string `json:"stream_hash"`
}

// FigureCapture is one figure's mini-sweep: its points plus the formatted
// table exactly as Print renders it.
type FigureCapture struct {
	ID     string         `json:"id"`
	Print  string         `json:"print"`
	Points []PointCapture `json:"points"`
}

// ExploreCapture summarizes one checker exploration, with the event
// streams of all explored schedules folded into one fingerprint.
type ExploreCapture struct {
	Scheme     string `json:"scheme"`
	Program    string `json:"program"`
	Executions int    `json:"executions"`
	Points     int64  `json:"points"`
	Truncated  int    `json:"truncated"`
	Exhausted  bool   `json:"exhausted"`
	StreamHash string `json:"stream_hash"`
}

// MutationCapture records a seeded-mutation exploration: the violation the
// checker must find, its deterministic replay token, and the event-stream
// fingerprint of replaying that token.
type MutationCapture struct {
	Scheme           string `json:"scheme"`
	Mutation         string `json:"mutation"`
	Desc             string `json:"desc"`
	Token            string `json:"token"`
	ReplayStreamHash string `json:"replay_stream_hash"`
}

// LitmusCapture summarizes one litmus outcome enumeration: the outcome
// labels with their counts and the event streams of all executions folded
// into one fingerprint.
type LitmusCapture struct {
	Scheme     string `json:"scheme"`
	Program    string `json:"program"`
	Executions int    `json:"executions"`
	Points     int64  `json:"points"`
	Exhausted  bool   `json:"exhausted"`
	Outcomes   string `json:"outcomes"`
	StreamHash string `json:"stream_hash"`
}

// WideCapture records one run of the wide-machine program: its cycles,
// the fingerprints of its event stream (with HTM data accesses traced) and
// final memory, and the transaction outcome totals.
type WideCapture struct {
	CPUs       int    `json:"cpus"`
	Cycles     int64  `json:"cycles"`
	Events     int64  `json:"events"`
	StreamHash string `json:"stream_hash"`
	MemHash    string `json:"mem_hash"`
	Commits    int64  `json:"commits"`
	Aborts     int64  `json:"aborts"`
}

// Capture is the full golden record.
type Capture struct {
	Figures      []FigureCapture   `json:"figures"`
	Explorations []ExploreCapture  `json:"explorations"`
	Mutations    []MutationCapture `json:"mutations"`
	Wide         []WideCapture     `json:"wide"`
	Litmus       []LitmusCapture   `json:"litmus"`
	Sanitized    []ExploreCapture  `json:"sanitized"`
}

// miniScale is the work multiplier of the per-figure mini-sweeps. It
// matches the harness golden test's scale so the sweeps stay CI-cheap.
const miniScale = 0.02

// miniSpec shrinks a figure to a differential mini-sweep: two thread
// counts and at most the two extreme write ratios. The shrink must stay
// stable across PRs — the committed capture encodes its exact points.
func miniSpec(id string) *harness.FigureSpec {
	spec := *harness.Registry()[id]
	spec.Threads = []int{2, 4}
	if len(spec.WritePcts) > 2 {
		spec.WritePcts = []int{spec.WritePcts[0], spec.WritePcts[len(spec.WritePcts)-1]}
	}
	return &spec
}

// exploreBudget bounds the differential explorations: large enough to
// exercise both DFS and random-walk strategies, small enough for CI.
const exploreBudget = 60

// CaptureAll runs every differential workload on the current engine and
// returns the capture.
func CaptureAll() *Capture {
	cap := &Capture{}

	ids := make([]string, 0, len(harness.Registry()))
	for id := range harness.Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cap.Figures = append(cap.Figures, captureFigure(id))
	}

	for _, scheme := range check.Schemes() {
		for _, prog := range check.Programs() {
			cap.Explorations = append(cap.Explorations, captureExplore(check.Config{Scheme: scheme, Program: prog}))
		}
	}

	cap.Mutations = []MutationCapture{
		captureMutation("RW-LE_OPT", check.MutLoseDoomAtResume),
		captureMutation("RW-LE_PES", check.MutSkipROTQuiesce),
	}

	for _, n := range wideCPUs {
		cap.Wide = append(cap.Wide, captureWide(n))
	}

	for _, scheme := range check.Schemes() {
		for _, prog := range check.LitmusPrograms() {
			cap.Litmus = append(cap.Litmus, captureLitmus(scheme, prog))
		}
		cap.Sanitized = append(cap.Sanitized, captureExplore(check.Config{Scheme: scheme, Program: sanitizedProgram, Sanitize: true}))
	}
	return cap
}

// sanitizedProgram is the program of the sanitized explorations: the
// hashmap allocates, frees and recycles nodes, so its traced stream
// carries the allocator events as well as every HTM-level data access.
const sanitizedProgram = "hashmap"

// captureFigure runs one figure's mini-sweep point by point, in the same
// deterministic order as FigureSpec.Run, hashing each point's event stream.
func captureFigure(id string) FigureCapture {
	spec := miniSpec(id)
	fc := FigureCapture{ID: id}
	var results []harness.Result
	for _, w := range spec.WritePcts {
		for _, n := range spec.Threads {
			for _, s := range spec.Schemes {
				h := newStreamHash()
				ctx := harness.PointCtx{Observe: func(m *machine.Machine) { m.SetTracer(h) }}
				r := spec.Point(ctx, s, n, w, miniScale)
				r.Figure, r.Scheme, r.Threads, r.WritePct = spec.ID, s, n, w
				results = append(results, r)
				fc.Points = append(fc.Points, PointCapture{
					Scheme: s, Threads: n, WritePct: w,
					Cycles: r.Cycles, Ops: r.B.Ops,
					Events: h.events, StreamHash: h.hex(),
				})
			}
		}
	}
	var buf bytes.Buffer
	harness.Print(&buf, spec, results)
	fc.Print = buf.String()
	return fc
}

// captureExplore runs one clean exploration of cfg, on the differential
// budget, with the trace hook installed, folding every execution's events
// into a single fingerprint.
func captureExplore(cfg check.Config) ExploreCapture {
	h := newStreamHash()
	check.TraceHook = func() machine.Tracer { return h }
	defer func() { check.TraceHook = nil }()

	cfg.MaxExecutions = exploreBudget
	rep := check.Explore(cfg)
	ec := ExploreCapture{
		Scheme: cfg.Scheme, Program: cfg.Program,
		Executions: rep.Executions, Points: rep.Points,
		Truncated: rep.Truncated, Exhausted: rep.Exhausted,
		StreamHash: h.hex(),
	}
	if rep.Violation != nil {
		// Clean schemes must stay clean; fold the evidence into the capture
		// so the diff surfaces it instead of silently hashing it.
		ec.StreamHash = "VIOLATION:" + rep.Violation.Desc
	}
	return ec
}

// captureLitmus enumerates one litmus program's outcomes under scheme, as
// hrwle-check -all runs the shapes (two threads, one section each), with
// the trace hook installed.
func captureLitmus(scheme, prog string) LitmusCapture {
	h := newStreamHash()
	check.TraceHook = func() machine.Tracer { return h }
	defer func() { check.TraceHook = nil }()

	outcomes, rep := check.EnumerateOutcomes(check.Config{
		Scheme: scheme, Program: prog, Threads: 2, Ops: 1, MaxExecutions: exploreBudget,
	})
	labels := make([]string, 0, len(outcomes))
	for label, n := range outcomes {
		labels = append(labels, fmt.Sprintf("%s:%d", label, n))
	}
	sort.Strings(labels)
	lc := LitmusCapture{
		Scheme: scheme, Program: prog,
		Executions: rep.Executions, Points: rep.Points, Exhausted: rep.Exhausted,
		Outcomes: strings.Join(labels, "; "), StreamHash: h.hex(),
	}
	if rep.Violation != nil {
		lc.StreamHash = "VIOLATION:" + rep.Violation.Desc
	}
	return lc
}

// captureMutation explores a seeded mutation until the checker finds the
// violation, then replays its token under the trace hook.
func captureMutation(scheme, mutation string) MutationCapture {
	rep := check.Explore(check.Config{Scheme: scheme, Mutation: mutation})
	mc := MutationCapture{Scheme: scheme, Mutation: mutation}
	if rep.Violation == nil {
		mc.Desc = "MUTATION NOT DETECTED"
		return mc
	}
	mc.Desc = rep.Violation.Desc
	mc.Token = rep.Violation.Token

	h := newStreamHash()
	check.TraceHook = func() machine.Tracer { return h }
	defer func() { check.TraceHook = nil }()
	if _, err := check.Replay(mc.Token); err != nil {
		mc.ReplayStreamHash = "REPLAY ERROR: " + err.Error()
		return mc
	}
	mc.ReplayStreamHash = h.hex()
	return mc
}

// wideCPUs are the machine sizes of the wide-machine program: one CPU past
// the first 64-bit bitmap word, exactly two words, and machine.MaxCPUs.
var wideCPUs = []int{65, 128, 256}

// Layout of the wide-machine program's memory, in words: wideShared
// shared lines from wideBase, then one private line per CPU.
const (
	wideLineWords = 16
	wideBase      = machine.Addr(wideLineWords)
	wideShared    = 32
	widePrivate   = wideBase + wideShared*wideLineWords
	wideRounds    = 24
)

// captureWide runs the wide-machine program on a machine of n CPUs. Every
// CPU draws random operations on the shared lines — coherent reads and
// writes, untracked HTM-layer loads and stores, CAS, regular transactions
// that read one shared line and write another, and rollback-only
// transactions — so CPUs below and above ID 64 share lines, conflict and
// doom one another. Each CPU also writes and re-reads a private line, the
// sole-owner write-hit path.
func captureWide(n int) WideCapture {
	memWords := int64(widePrivate) + int64(n)*wideLineWords
	m := machine.New(machine.Config{CPUs: n, MemWords: memWords, Seed: uint64(n)})
	sys := htm.NewSystem(m, htm.Config{})
	sys.SetTraceAccesses(true)
	h := newStreamHash()
	m.SetTracer(h)
	var commits int64

	cycles := m.Run(n, func(c *machine.CPU) {
		t := sys.Thread(c.ID)
		own := widePrivate + machine.Addr(c.ID*wideLineWords)
		shared := func() machine.Addr {
			return wideBase + machine.Addr(c.Intn(wideShared)*wideLineWords+c.Intn(4))
		}
		for r := 0; r < wideRounds; r++ {
			a, b := shared(), shared()
			v := uint64(c.ID)<<16 | uint64(r)
			switch c.Intn(7) {
			case 0:
				c.Read(a)
			case 1:
				c.Write(a, v)
			case 2:
				t.Load(a)
			case 3:
				t.Store(a, v)
			case 4:
				t.CAS(a, t.Load(a), v)
			case 5:
				if t.Try(false, func() { t.Store(b, t.Load(a)+v) }).OK {
					commits++
				}
			case 6:
				if t.Try(true, func() { t.Store(a, v); t.Store(b, t.LoadStream(b)+1) }).OK {
					commits++
				}
			}
			c.Write(own, v)
			c.Write(own+1, c.Read(own))
			c.Work(int64(c.Intn(200)))
		}
	})

	mem := newStreamHash()
	for a := machine.Addr(0); a < machine.Addr(memWords); a++ {
		mem.word(m.Peek(a))
	}
	wc := WideCapture{
		CPUs: n, Cycles: cycles, Events: h.events,
		StreamHash: h.hex(), MemHash: mem.hex(), Commits: commits,
	}
	for _, st := range sys.Stats(n) {
		for _, k := range st.Aborts {
			wc.Aborts += k
		}
	}
	return wc
}

// Package machine implements a deterministic discrete-event simulator of a
// shared-memory multiprocessor. It is the substrate on which the rest of
// this repository — a software POWER8-style HTM, the RW-LE lock-elision
// algorithm, the baseline locks, and the benchmark applications — executes.
//
// Each simulated hardware thread (CPU) runs as a resumable coroutine
// driven by one inline scheduler loop on the caller's goroutine (Run).
// Exactly one CPU executes at any moment: when a CPU's virtual clock
// passes another runnable CPU's, it parks itself and the loop resumes the
// CPU with the smallest (time, ID). A park/resume is a direct coroutine
// switch (iter.Pull), not a channel handoff through the runtime scheduler,
// which is what makes the simulator's innermost loop cheap. All shared
// simulator state is mutated from whichever coroutine holds the floor, so
// every run is race-free and bit-for-bit reproducible from its seed,
// regardless of how many physical cores the host has.
//
// The simulator models the parts of the memory system that synchronization
// performance depends on:
//
//   - a flat, word-addressed memory with a line-granular coherence timing
//     model (hit/miss costs, exclusive-line transfer reservations that
//     serialize hot-line ping-pong);
//   - an optional virtual-memory model (per-CPU TLBs, demand paging with a
//     residency limit and CLOCK eviction, timer interrupts) whose faults
//     and interrupts abort hardware transactions, as on real hardware;
//   - a simple dynamic allocator over the simulated memory.
package machine

import (
	"fmt"
	"sync"
)

// Addr is a word address in simulated memory. Words are 64 bits wide.
// Address 0 is reserved as the nil address.
type Addr int64

// MaxCPUs is the maximum number of simulated hardware threads.
const MaxCPUs = 256

// PagingConfig configures the simulated virtual-memory subsystem.
type PagingConfig struct {
	// Enabled turns on TLB/paging simulation. When false, memory accesses
	// pay only coherence costs.
	Enabled bool
	// PageWords is the page size in words (default 512 = 4 KiB).
	PageWords int64
	// ResidentLimit caps the number of simultaneously resident pages;
	// 0 means unlimited (no page-fault thrashing).
	ResidentLimit int64
	// TLBEntries is the number of per-CPU direct-mapped TLB entries
	// (default 128).
	TLBEntries int
	// InterruptMean, when non-zero, delivers a timer interrupt to each CPU
	// on average every InterruptMean cycles. Interrupts abort in-flight
	// hardware transactions (via the CPU's OnInterrupt hook).
	InterruptMean int64
}

// Config configures a simulated machine.
type Config struct {
	// CPUs is the number of simulated hardware threads (1..MaxCPUs).
	CPUs int
	// MemWords is the size of simulated memory in 64-bit words.
	MemWords int64
	// LineWords is the cache-line size in words (default 16 = 128 B,
	// matching POWER8).
	LineWords int64
	// Seed seeds all per-CPU random streams.
	Seed uint64
	// Costs is the virtual-cycle cost model; zero value means DefaultCosts.
	Costs CostModel
	// Paging configures the VM subsystem.
	Paging PagingConfig
	// Deadline aborts the simulation (panic) if any CPU's virtual clock
	// exceeds it; it catches livelocks. 0 means 1e14 cycles.
	Deadline int64
}

func (cfg *Config) applyDefaults() {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.CPUs > MaxCPUs {
		panic(fmt.Sprintf("machine: %d CPUs exceeds MaxCPUs=%d", cfg.CPUs, MaxCPUs))
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 1 << 20
	}
	if cfg.LineWords == 0 {
		cfg.LineWords = 16
	}
	if cfg.LineWords&(cfg.LineWords-1) != 0 {
		panic("machine: LineWords must be a power of two")
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.Paging.PageWords == 0 {
		cfg.Paging.PageWords = 512
	}
	if cfg.Paging.TLBEntries == 0 {
		cfg.Paging.TLBEntries = 128
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 1e14
	}
}

// line holds per-cache-line coherence state: the time until which the line
// is reserved by an exclusive transfer, the last exclusive owner, and the
// bits of CPUs 0..63 in the bitmap of CPUs that have read the line since
// the last write. CPUs 64 and up keep their bits in Machine.wideSharers,
// so a machine of at most 64 CPUs spends 24 bytes per line.
type line struct {
	exclUntil int64
	owner     int32 // last exclusive owner's ID + 1; 0 = never written
	sharers   uint64
}

// WideBits holds one line's bitmap bits of CPUs 64..MaxCPUs-1, one word
// per 64 CPUs. Per-line CPU bitmaps (the coherence sharers here, the HTM
// directory's readers) keep CPUs 0..63 in one inline word and these words
// in a side table that only machines above 64 CPUs allocate.
type WideBits [MaxCPUs/64 - 1]uint64

// NewWideBits returns a zeroed side table with one WideBits per cache
// line, or nil when the machine has at most 64 CPUs and needs none.
func (m *Machine) NewWideBits() []WideBits {
	if m.Cfg.CPUs <= 64 {
		return nil
	}
	return make([]WideBits, len(m.lines))
}

// CPUBit is CPU id's bit within its 64-bit bitmap word.
//
//simlint:hotpath
func CPUBit(id int) uint64 { return 1 << (uint(id) & 63) }

// InlineBit is CPU id's bit in a per-line inline bitmap word, 0 when
// id ≥ 64.
//
//simlint:hotpath
func InlineBit(id int) uint64 {
	if id >= 64 {
		return 0
	}
	return CPUBit(id)
}

// WideBit is CPU id's bit in a line's side-table words, all zero when
// id < 64.
//
//simlint:hotpath
func WideBit(id int) (w WideBits) {
	if id >= 64 {
		w[id>>6-1] = CPUBit(id)
	}
	return w
}

// sharerWord returns the bitmap word of line li that holds CPU id's bit.
//
//simlint:hotpath
func (m *Machine) sharerWord(li int64, id int) *uint64 {
	if id < 64 {
		return &m.lines[li].sharers
	}
	return &m.wideSharers[li][id>>6-1]
}

//simlint:hotpath
func (m *Machine) isSharer(li int64, id int) bool { return *m.sharerWord(li, id)&CPUBit(id) != 0 }

//simlint:hotpath
func (m *Machine) addSharer(li int64, id int) { *m.sharerWord(li, id) |= CPUBit(id) }

// setExclusive makes CPU id the owner and only sharer of line li.
//
//simlint:hotpath
func (m *Machine) setExclusive(li int64, id int) {
	l := &m.lines[li]
	l.owner = int32(id) + 1
	l.sharers = 0
	if m.wideSharers != nil {
		m.wideSharers[li] = WideBits{}
	}
	m.addSharer(li, id)
}

// onlySharer reports whether CPU id is line li's one sharer.
//
//simlint:hotpath
func (m *Machine) onlySharer(li int64, id int) bool {
	return m.lines[li].sharers == InlineBit(id) && (m.wideSharers == nil || m.wideSharers[li] == WideBit(id))
}

// Machine is a simulated shared-memory multiprocessor.
type Machine struct {
	Cfg   Config
	words []uint64
	lines []line
	// wideSharers holds the sharer bits of CPUs 64 and up, one entry per
	// line; nil when Cfg.CPUs <= 64.
	wideSharers []WideBits
	cpus        []*CPU
	heap        cpuHeap
	pager       pager
	alloc       arena
	baseTime    int64
	lineShift   uint

	tracer Tracer
	sched  Scheduler

	schedScratch []*CPU

	// next is the successor chosen by the parking CPU's Sync, read by the
	// scheduler loop right after the park returns control to it.
	next *CPU

	runErr any
	//simlint:allow determinism runOnce serializes whole Run invocations from the host side; it never orders simulated events
	runOnce sync.Mutex
}

// New creates a machine with the given configuration. It allocates storage
// of exactly cfg's shape and then runs ResetTo(cfg), so the initial state
// has one definition: a new machine is a reset one. Fresh storage is
// already zero, and a reset clears only what the allocator has handed out,
// so New never zeroes memory twice.
func New(cfg Config) *Machine {
	cfg.applyDefaults()
	m := &Machine{Cfg: cfg}
	for s := int64(1); s < cfg.LineWords; s <<= 1 {
		m.lineShift++
	}
	m.words = make([]uint64, cfg.MemWords)
	m.lines = make([]line, m.numLines(cfg.MemWords))
	m.wideSharers = m.NewWideBits()
	m.alloc.free = make(map[int64][]Addr)
	m.cpus = make([]*CPU, cfg.CPUs)
	for i := range m.cpus {
		m.cpus[i] = &CPU{m: m, ID: i}
	}
	m.ResetTo(cfg)
	return m
}

// numLines returns the number of cache lines covering words words.
func (m *Machine) numLines(words int64) int {
	return int((words + m.Cfg.LineWords - 1) >> m.lineShift)
}

// Fits reports whether m's storage can take the shape of cfg, so that
// ResetTo(cfg) needs no new storage: cfg asks for no more memory words and
// CPUs than m was built with, the same line size, and the same side of 64
// CPUs (a machine above 64 CPUs keeps per-line side tables, one at or
// below 64 has none).
func (m *Machine) Fits(cfg Config) bool {
	cfg.applyDefaults()
	return cfg.LineWords == m.Cfg.LineWords &&
		cfg.MemWords <= int64(cap(m.words)) &&
		cfg.CPUs <= cap(m.cpus) &&
		(cfg.CPUs > 64) == (m.wideSharers != nil)
}

// ResetTo returns m to the state New(cfg) returns, reusing its storage:
// memory, coherence state, allocator, pager, CPUs, virtual time, tracer
// and scheduler. cfg must fit m's storage (Fits); ResetTo panics if it
// does not.
//
// It zeroes only the words below the allocator's high-water mark
// (HeapUsed) and the coherence state of the lines covering them
// (UsedLines); nothing above the mark was ever handed out, so all storage
// above it, up to the capacity m was built with, stays zero. A program
// that reads or writes addresses the allocator never returned is outside
// that contract and must build a new machine instead. The memory, line
// and CPU slices are then resliced to exactly cfg's shape: schemes size
// their per-CPU state from Cfg.CPUs, so a machine with spare CPUs would
// not be equivalent. Each CPU keeps its TLB storage, which Run
// re-initializes.
//
// ResetTo must not be called while Run is in progress; it panics if it
// is. A machine wrapped by an htm.System is reset through the System,
// which also clears its directory and rebinds the CPUs' HTM hooks.
//
//simlint:allow determinism the runOnce TryLock only rejects a reset racing a Run on the host side; it orders no simulated event
func (m *Machine) ResetTo(cfg Config) {
	cfg.applyDefaults()
	if !m.Fits(cfg) {
		panic(fmt.Sprintf("machine: ResetTo %d words, %d CPUs, %d-word lines does not fit storage of %d words, %d CPUs, %d-word lines",
			cfg.MemWords, cfg.CPUs, cfg.LineWords, cap(m.words), cap(m.cpus), m.Cfg.LineWords))
	}
	if !m.runOnce.TryLock() {
		panic("machine: ResetTo during Run")
	}
	defer m.runOnce.Unlock()

	used := m.UsedLines()
	clear(m.words[:m.alloc.next])
	clear(m.lines[:used])
	if m.wideSharers != nil {
		clear(m.wideSharers[:used])
	}
	m.pager.reset()

	m.Cfg = cfg
	n := m.numLines(cfg.MemWords)
	m.words = m.words[:cfg.MemWords]
	m.lines = m.lines[:n]
	if m.wideSharers != nil {
		m.wideSharers = m.wideSharers[:n]
	}
	m.pager.init(cfg)
	m.alloc.reset(cfg)
	m.cpus = m.cpus[:cfg.CPUs]
	for _, c := range m.cpus {
		c.reset()
	}
	m.heap.cpus = m.heap.cpus[:0]
	m.baseTime = 0
	m.tracer = nil
	m.sched = nil
	m.next = nil
	m.runErr = nil
}

// UsedLines returns the number of cache lines, from line 0, that cover the
// words the allocator has handed out (HeapUsed). Layers that keep per-line
// state beside the machine's (the HTM conflict directory) clear this many
// entries when they reset.
func (m *Machine) UsedLines() int { return m.numLines(int64(m.alloc.next)) }

// NumLines returns the number of cache lines covering simulated memory.
// Layers above (e.g. the HTM conflict directory) size their per-line
// metadata from it.
func (m *Machine) NumLines() int { return len(m.lines) }

// LineOf returns the cache-line index of address a.
func (m *Machine) LineOf(a Addr) int64 { return int64(a) >> m.lineShift }

// Peek reads a word of simulated memory without charging time. It must only
// be called by the token-holding CPU or outside Run.
func (m *Machine) Peek(a Addr) uint64 { return m.words[a] }

// Poke writes a word of simulated memory without charging time. It must
// only be called by the token-holding CPU or outside Run.
func (m *Machine) Poke(a Addr, v uint64) { m.words[a] = v }

// CPU returns the simulated CPU with the given ID.
func (m *Machine) CPU(id int) *CPU { return m.cpus[id] }

// Now returns the current global virtual time (the maximum over all CPUs).
func (m *Machine) Now() int64 {
	t := m.baseTime
	for _, c := range m.cpus {
		if c.now > t {
			t = c.now
		}
	}
	return t
}

// Setup runs body on CPU 0 in fast mode: no virtual time is charged, no
// paging or interrupts fire, and no scheduling happens. Use it to populate
// data structures through the same code paths the measured run uses.
func (m *Machine) Setup(body func(*CPU)) {
	c := m.cpus[0]
	c.fast = true
	defer func() { c.fast = false }()
	body(c)
}

// Run executes body on CPUs 0..threads-1 concurrently in virtual time and
// returns the elapsed virtual cycles (the time at which the last CPU
// finished, minus the start time). Virtual time is monotonic across
// successive Runs on the same machine.
//
// Run is the inline scheduler loop: it resumes one CPU coroutine at a
// time, always the scheduler's choice (minimum (time, ID) by default, the
// controlled Scheduler's pick otherwise). A resumed CPU executes until its
// Sync parks it — having first recorded its successor in m.next — or until
// its body returns or panics. A body panic is captured at the coroutine
// root (see spawn), recorded in runErr, and re-raised here once the
// remaining CPUs have run to completion, exactly as the previous
// goroutine-per-CPU engine behaved.
//
//simlint:allow determinism the runOnce mutex only rejects concurrent host callers of Run on one machine; all simulated events run on this single goroutine, ordered by the virtual-time heap, so host scheduling never orders them
func (m *Machine) Run(threads int, body func(*CPU)) int64 {
	if threads <= 0 || threads > len(m.cpus) {
		panic(fmt.Sprintf("machine: Run with %d threads (have %d CPUs)", threads, len(m.cpus)))
	}
	m.runOnce.Lock()
	defer m.runOnce.Unlock()

	base := m.Now()
	m.baseTime = base
	m.heap.cpus = m.heap.cpus[:0]
	m.runErr = nil

	active := m.cpus[:threads]
	for _, c := range active {
		c.beginRun(base)
		m.heap.push(c)
		c.spawn(body)
	}
	// Release still-parked coroutines if the loop exits abnormally (e.g. a
	// controlled scheduler violating its contract); on a normal exit every
	// coroutine has already finished and release is a no-op.
	defer func() {
		for _, c := range active {
			c.release()
		}
	}()

	cur := m.pickNext(nil)
	for cur != nil {
		if cur.waiter != nil {
			// An engine-stepped wait: run one step in place of a resume.
			// Only when the wait completes (or its step panicked, with
			// the panic stashed for Await to re-raise) does the CPU's
			// coroutine get the floor back.
			if !m.stepWaiter(cur) {
				m.heap.fix(cur)
				cur = m.pickNext(nil)
				continue
			}
		}
		if m.sched == nil {
			m.refreshWake(cur)
		}
		if _, parked := cur.resume(); parked {
			// cur parked in Sync after choosing its successor.
			cur = m.next
		} else {
			// cur's body returned or panicked (spawn's seq-root recover
			// turns body panics into normal coroutine exits after
			// recording runErr): retire it and pick fresh.
			if cur.heapIdx >= 0 {
				m.heap.remove(cur)
			}
			cur = m.pickNext(nil)
		}
	}
	if m.runErr != nil {
		panic(m.runErr)
	}
	end := m.Now()
	return end - base
}

// stepWaiter advances c's engine-stepped wait by one step and reports
// whether the wait is over. It owns the two pieces of bookkeeping a step
// cannot do for itself: the livelock deadline check (a waiting CPU's Syncs
// are disabled, so syncSlow never sees it) and the re-routing of a panic
// raised inside a step — both are stashed in c.stepErr and re-raised by
// Await on the waiting CPU's own stack, exactly where the open-coded loop
// would have raised them.
//
//simlint:allow abortflow the recover re-routes a step's panic — including an HTM abort unwinding a doomed transaction — onto the waiting CPU's coroutine, where Await re-panics it verbatim for htm.Thread.Try to consume
func (m *Machine) stepWaiter(c *CPU) (done bool) {
	if c.now > m.Cfg.Deadline {
		c.waiter = nil
		c.stepErr = fmt.Sprintf("machine: CPU %d exceeded virtual deadline (%d cycles): livelock?", c.ID, m.Cfg.Deadline)
		return true
	}
	defer func() {
		if r := recover(); r != nil {
			c.waiter = nil
			c.stepErr = r
			done = true
		}
	}()
	if c.waiter.Step(c) {
		c.waiter = nil
		return true
	}
	return false
}

// refreshWake recomputes the wake threshold of next, the CPU about to be
// resumed: the smallest packed (virtual time, ID) key among all *other*
// runnable CPUs. While next runs, every other runnable CPU is parked in
// its coroutine with a frozen clock, so the threshold stays valid until
// the next resume. Sync compares against it to answer "am I still the
// minimum?" with a single comparison instead of a heap fix + pick. Under
// the default scheduler next is the heap root, so the minimum among the
// others is the smaller of the root's two children.
func (m *Machine) refreshWake(next *CPU) {
	h := &m.heap
	if len(h.cpus) <= 1 {
		// No other runnable CPU: next keeps the floor until it finishes.
		// Clamp the threshold to just past the deadline so a runaway body
		// still falls off the fast path and into syncSlow's livelock check
		// (parked CPUs always have clocks within the deadline — their own
		// Sync checked it before parking — so multi-CPU thresholds never
		// need the clamp).
		next.wake = (m.Cfg.Deadline + 1) << clockIDBits
		return
	}
	best := h.cpus[1]
	if len(h.cpus) > 2 && h.less(2, 1) {
		best = h.cpus[2]
	}
	next.wake = best.now<<clockIDBits | best.idKey
}

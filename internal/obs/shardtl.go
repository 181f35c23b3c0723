package obs

import "hrwle/internal/machine"

// ShardTimelines fans one machine's event stream out into per-shard
// Timelines. The runner tells it which shard each CPU is currently
// working inside (SetShard, a host-side routing table mutated while the
// CPU holds the floor, so it is deterministic like every other host-side
// structure in the service layer); events from unattributed CPUs advance
// time but belong to no shard.
//
// Delivery ordering is the subtle part. A watermark over the events routed
// to one shard would let a CPU that rarely visits that shard hold its
// windows back forever. ShardTimelines therefore keeps a single
// machine-global watermark (the minimum over CPUs of the last event seen
// from each, regardless of shard) and drives every shard's delivery from
// it via Timeline.Advance: once no CPU can emit another event at or
// before a window's end, that window is final for every shard at once.
// Windows are delivered shard-by-shard in shard order at each watermark
// advance, so a controller subscribed to all shards observes a
// deterministic total order.
type ShardTimelines struct {
	Shards []*Timeline

	cur  []int   // per-CPU current shard; -1 = unattributed
	last []int64 // per-CPU global watermark input
	mark int64   // cached global watermark (min over last)
}

// NewShardTimelines builds one Timeline per shard, all sharing the window
// width and per-class sojourn layout.
func NewShardTimelines(windowCycles int64, shards, classes int) *ShardTimelines {
	st := &ShardTimelines{Shards: make([]*Timeline, shards)}
	for i := range st.Shards {
		st.Shards[i] = NewTimeline(windowCycles, classes)
	}
	return st
}

// Start fixes the window origin for a run driving `cpus` CPUs. Subscribe
// to the per-shard timelines before calling it.
func (st *ShardTimelines) Start(base int64, cpus int) {
	st.mark = base
	st.cur = make([]int, cpus)
	st.last = make([]int64, cpus)
	for i := range st.cur {
		st.cur[i] = -1
		st.last[i] = base
	}
	for _, tl := range st.Shards {
		tl.Start(base)
	}
}

// SetShard routes cpu's subsequent events to shard (-1 detaches). Call
// only from the CPU itself while it holds the floor.
func (st *ShardTimelines) SetShard(cpu, shard int) { st.cur[cpu] = shard }

// Event implements machine.Tracer: accumulate into the current shard,
// advance the global watermark, and deliver any windows it finalized.
func (st *ShardTimelines) Event(e machine.Event) {
	if e.CPU < 0 || e.CPU >= len(st.cur) {
		return
	}
	if s := st.cur[e.CPU]; s >= 0 {
		st.Shards[s].Event(e)
	}
	if e.Time <= st.last[e.CPU] {
		return
	}
	wasMin := st.last[e.CPU] == st.mark
	st.last[e.CPU] = e.Time
	if !wasMin {
		return // the minimum cannot have moved
	}
	mark := st.last[0]
	for _, t := range st.last[1:] {
		if t < mark {
			mark = t
		}
	}
	if mark > st.mark {
		st.mark = mark
		for _, tl := range st.Shards {
			tl.Advance(mark)
		}
	}
}

// Finish closes every shard timeline at the machine's end time,
// delivering all remaining windows (shard order, window order).
func (st *ShardTimelines) Finish(end int64) {
	for _, tl := range st.Shards {
		tl.Finish(end)
	}
}

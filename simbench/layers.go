package main

import (
	"sort"
	"strings"
	"time"

	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/stats"
)

// abortMetric names the htm.aborts.<cause> metrics, in stats.AbortCause
// order.
var abortMetric = [stats.NumAbortCauses]string{
	"conflict_tx", "conflict_nontx", "capacity", "lock_busy",
	"rot_conflict", "rot_capacity", "explicit",
}

// layerMetrics reports the per-layer metrics of one workload from its
// untraced passes (host times averaged over them; CPU counters and
// simulated outputs, identical in every pass) and a traced pass (event
// tallies). Counts of a layer the workload does not run read 0.
func layerMetrics(res *result, passes []iteration, traced *iteration) {
	plain := &passes[0]
	var (
		lc                             layerCounts
		cnt                            machine.Counters
		cycles, ops, arrivals, dropped int64
		served, samples                int64
		p50, p999                      float64
		switches, crossTx              int64
		decisions, truncated, races    int64
		pointMs                        []float64
		setup, populate, simulate      time.Duration
	)
	for i := range plain.runs {
		r := &plain.runs[i]
		if t := &traced.runs[i]; t.layer != nil {
			lc.add(t.layer)
		}
		cnt.Reads += r.counters.Reads
		cnt.Writes += r.counters.Writes
		cnt.CASes += r.counters.CASes
		cnt.TLBMisses += r.counters.TLBMisses
		cnt.PageFaults += r.counters.PageFaults
		for k := range passes {
			r := &passes[k].runs[i]
			pointMs = append(pointMs, ms(r.wall()))
			setup += r.observed.Sub(r.start) / time.Duration(len(passes))
			populate += r.first.Sub(r.observed) / time.Duration(len(passes))
			simulate += r.simulateTime() / time.Duration(len(passes))
		}
		o := r.out
		if o == nil {
			continue
		}
		cycles += o.cycles
		ops += o.ops
		switches += o.shardSwitches
		crossTx += o.crossTx
		decisions += o.decisionPoints
		truncated += o.truncated
		races += o.races
		if s := o.svc; s != nil {
			arrivals += s.Requests
			served += s.Served
			dropped += s.Dropped
			for _, c := range s.Classes {
				samples += c.Sojourn.Count
				p50 = max(p50, obs.Usec(c.Sojourn.P50Cycles))
				p999 = max(p999, obs.Usec(c.Sojourn.P999Cycles))
			}
		}
	}

	// Checker machines are private to internal/check: their makespans and
	// accesses come from the traced pass's events (the sanitizer turns on
	// per-access events there).
	accesses := cnt.Reads + cnt.Writes + cnt.CASes
	pageFaults := cnt.PageFaults
	if decisions > 0 {
		cycles = lc.lastEvent
		accesses = lc.accessEvts
		pageFaults = lc.pageFaults
	}
	var csEnds int64
	for _, n := range lc.csEnds {
		csEnds += n
	}
	completed := csEnds
	switch {
	case arrivals > 0:
		completed = served
	case ops > 0:
		completed = ops
	}

	res.set("sim_cycles", float64(cycles), "cycles")
	res.set("sim_mcycles_per_s", float64(cycles)/1e6/simulate.Seconds(), "Mcycles/s")
	res.set("sim_req_per_s", ratio(float64(completed), machine.Seconds(cycles)), "1/s")
	res.set("sim_p50_us", p50, "us")
	res.set("sim_p999_us", p999, "us")
	res.set("sim_samples", float64(samples), "count")
	res.set("sim_drop_pct", 100*ratio(float64(dropped), float64(arrivals)), "%")

	res.set("machine.accesses", float64(accesses), "count")
	res.set("machine.events", float64(lc.events), "count")
	res.set("machine.host_ns_per_access", ratio(float64(simulate.Nanoseconds()), float64(accesses)), "ns")
	res.set("machine.tlb_misses", float64(cnt.TLBMisses), "count")
	res.set("machine.page_faults", float64(pageFaults), "count")

	for p, n := range lc.csEnds {
		res.set("htm.commits."+stats.CommitPath(p).String(), float64(n), "count")
	}
	for c, n := range lc.aborts {
		res.set("htm.aborts."+abortMetric[c], float64(n), "count")
	}
	res.set("htm.commit_ratio", ratio(float64(lc.txCommits), float64(lc.txBegins)), "ratio")
	res.set("core.quiesce_cycles", float64(lc.quiesce), "cycles")
	res.set("core.fallback_share", ratio(float64(lc.csEnds[stats.CommitSGL]), float64(csEnds)), "ratio")

	res.set("shard.switches", float64(switches), "count")
	res.set("shard.cross_tx", float64(crossTx), "count")
	res.set("check.decision_points", float64(decisions), "count")
	res.set("check.truncated", float64(truncated), "count")
	res.set("simsan.races", float64(races), "count")

	sort.Float64s(pointMs)
	res.set("harness.point_ms_p50", pointMs[len(pointMs)/2], "ms")
	res.set("harness.point_ms_max", pointMs[len(pointMs)-1], "ms")
	res.set("phase.setup_s", setup.Seconds(), "s")
	res.set("phase.populate_s", populate.Seconds(), "s")
	res.set("phase.simulate_s", simulate.Seconds(), "s")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clockOf says whether a metric is host time (what the simulator costs)
// or simulated time and counts (what the modelled machine does).
func clockOf(name string) string {
	switch {
	case name == "sim_mcycles_per_s":
		return "host"
	case strings.HasPrefix(name, "sim_"),
		strings.HasPrefix(name, "htm.commits."), strings.HasPrefix(name, "htm.aborts."),
		name == "htm.commit_ratio", strings.HasPrefix(name, "core."), strings.HasPrefix(name, "shard."),
		name == "machine.accesses", name == "machine.events", name == "machine.tlb_misses",
		name == "machine.page_faults", name == "check.decision_points", name == "check.truncated",
		name == "simsan.races":
		return "sim"
	}
	return "host"
}

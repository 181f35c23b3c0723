// Command simbench is the repository's benchmark. It runs one named
// workload of simulation points serially in this process, times every
// point from outside (set-up, population, simulation), checks that the
// simulated outputs are correct, and prints its metrics as one JSON object
// on the last line of standard output.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash simbench/run.sh --workload fig5-mini --seed 1 --seconds 25 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the layer
// microbenchmarks and a traced pass, prints the per-layer metrics and
// writes the host spans to .bench_build/simbench/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fig5-mini, shard-knee, serve-profiled or check-sanitized")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 25, "measurement time; whole passes over the workload run until it is spent")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	)
	flag.Parse()
	if *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "simbench: need --seed >= 1, --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if _, err := os.Stat(shardRecordPath); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: run from the repository root: %v\n", err)
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, true, filepath.Join(".bench_build", "simbench"))
	} else {
		res = runMeasured(w, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "FAIL", p)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the report: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// account adds an iteration's point runs and problems.
func (r *result) account(it iteration) {
	r.Attempted += len(it.runs)
	r.problems = append(r.problems, it.problems...)
}

// warmUp runs the workload's first point once, unmeasured, so the
// process's one-off first-point cost (the heap's first growth) stays out
// of the medians. A failure still counts.
func (r *result) warmUp(w *workload) pointRun {
	warm := runPoint(w.points[0], false, false)
	r.Attempted++
	if warm.err != nil {
		r.problems = append(r.problems, fmt.Sprintf("%s %s (warm-up): %v", w.name, warm.name, warm.err))
	}
	return warm
}

// finish derives correct and failed from the collected problems.
func (r *result) finish() {
	r.Failed = len(r.problems)
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Correct = len(r.problems) == 0
}

// print writes one line per metric, then the JSON report as the last line.
func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-34s %16.6f %-9s %s\n", n, m.Value, m.Unit, clockOf(n))
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", line)
}

// runMeasured warms up, then repeats whole passes over the workload until
// the measurement time is spent, and reports the end-to-end metrics as
// medians over the passes.
func runMeasured(w *workload, budget time.Duration) *result {
	res := newResult()
	res.warmUp(w)

	var its []iteration
	start := time.Now()
	for len(its) < minPasses || time.Since(start) < budget {
		it := runIteration(w, false, false)
		res.account(it)
		fmt.Fprintf(os.Stderr, "simbench: %s pass %d: wall %.3fs, setup %.3fs, %d problems\n",
			w.name, len(its)+1, it.wall().Seconds(), it.setup().Seconds(), len(it.problems))
		if len(its) > 0 {
			res.problems = append(res.problems, sameOutputs(its[0], it, w.name+" repeated pass")...)
		}
		its = append(its, it)
	}

	res.set("wall_s", median(its, func(it *iteration) float64 { return it.wall().Seconds() }), "s")
	res.set("setup_s", median(its, func(it *iteration) float64 { return it.setup().Seconds() }), "s")
	res.set("exec_per_s", median(its, func(it *iteration) float64 { return float64(it.machineRuns()) / it.wall().Seconds() }), "1/s")
	res.set("alloc_mb", median(its, func(it *iteration) float64 { return float64(it.allocBytes()) / 1e6 }), "MB")
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.finish()
	return res
}

// minPasses is the fewest passes a measured run makes, so every median
// has at least three samples.
const minPasses = 3

func median(its []iteration, f func(*iteration) float64) float64 {
	v := make([]float64, len(its))
	for i := range its {
		v[i] = f(&its[i])
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tracePasses is how many untraced, traced and observer-free passes a
// traced run alternates.
const tracePasses = 2

// wallOf sums the walls of its, in seconds.
func wallOf(its []iteration) float64 {
	var s float64
	for i := range its {
		s += its[i].wall().Seconds()
	}
	return s
}

// peakRSSMB is the process's peak resident set so far: VmHWM of its
// current address space, which unlike getrusage's maxrss does not include
// the shell that exec'd simbench.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runTraced runs the layer microbenchmarks, then untraced passes, traced
// passes and, where the workload has one, passes without its observer; it
// checks that all passes simulated the same outputs, writes the host spans
// under dir and reports the per-layer metrics.
func runTraced(w *workload, seed uint64, full bool, dir string) (*result, error) {
	res := newResult()
	log := &spanLog{origin: time.Now()}

	micro, err := runMicro(full)
	if err != nil {
		return nil, err
	}
	for _, m := range micro {
		res.set(m.name, m.value, m.unit)
		log.add(0, "micro."+m.name, "", m.name, m.start, m.end)
	}

	warm := res.warmUp(w)
	res.set("harness.first_point_setup_ms", ms(warm.setupTime()), "ms")

	// Untraced, traced and (where the workload has one) observer-free
	// passes alternate, tracePasses of each, so a slow host phase hits
	// every kind alike; ratios compare summed walls.
	hasBare := w.name == "serve-profiled" || w.name == "check-sanitized"
	var plain, traced, bare []iteration
	pass := func(tr, b bool, what string) iteration {
		it := runIteration(w, tr, b)
		res.account(it)
		if len(plain) > 0 {
			res.problems = append(res.problems, sameOutputs(plain[0], it, w.name+" "+what)...)
		}
		return it
	}
	for i := 0; i < tracePasses; i++ {
		plain = append(plain, pass(false, false, "repeated pass"))
		traced = append(traced, pass(true, false, "traced pass"))
		if hasBare {
			bare = append(bare, pass(false, true, "pass without observer"))
		}
	}
	id := 0
	for _, it := range append(traced, bare...) {
		for i := range it.runs {
			id++
			log.addPoint(id, &it.runs[i])
		}
	}

	// The observer a workload exists to measure is timed against the
	// passes without it; layers a workload does not run report 0.
	profOverhead, sanOverhead, execUnsanitized := 0.0, 0.0, 0.0
	switch w.name {
	case "serve-profiled":
		profOverhead = wallOf(plain) / wallOf(bare)
	case "check-sanitized":
		sanOverhead = wallOf(plain) / wallOf(bare)
		execUnsanitized = float64(bare[0].machineRuns()) * tracePasses / wallOf(bare)
	}
	res.set("obs.profile_overhead", profOverhead, "ratio")
	res.set("simsan.overhead", sanOverhead, "ratio")
	res.set("check.exec_per_s_unsanitized", execUnsanitized, "1/s")

	overhead := wallOf(traced) / wallOf(plain)
	res.set("trace.overhead", overhead, "ratio")
	layerMetrics(res, plain, &traced[0])

	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	err = log.write(path, traceFile{
		Workload:      w.name,
		Seed:          seed,
		UntracedWallS: wallOf(plain) / tracePasses,
		TracedWallS:   wallOf(traced) / tracePasses,
		Overhead:      overhead,
	})
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "simbench: %d spans written to %s (GOMAXPROCS %d, %d CPUs)\n",
		len(log.spans), path, runtime.GOMAXPROCS(0), runtime.NumCPU())
	res.finish()
	return res, nil
}

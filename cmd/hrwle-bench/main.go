// Command hrwle-bench regenerates the evaluation figures of "Hardware
// Read-Write Lock Elision" (EuroSys'16) on the simulated POWER8 machine.
//
// Usage:
//
//	hrwle-bench -list
//	hrwle-bench -fig fig3 [-scale 0.25] [-o fig3.txt]
//	hrwle-bench -fig all  [-scale 1] [-j 8]
//	hrwle-bench -fig fig5 -metrics-dir results/metrics   # + RunMetrics JSON
//	hrwle-bench -bench results/BENCH_PR4.json [-bench-baseline results/BENCH_SEED.json]
//
// Each figure prints three panels matching the paper: execution time (or
// throughput), the abort-cause breakdown, and the commit-path breakdown.
// -scale multiplies the amount of work per point (1 = the default recorded
// in EXPERIMENTS.md; smaller is faster and noisier). -j runs that many
// measurement points concurrently (each point is an independent simulated
// machine; results are deterministic and ordered regardless of -j).
//
// -bench skips figure output and instead runs the fixed wall-clock
// mini-sweep, writing a BenchReport JSON (sim cycles/sec, points/sec,
// parallel speedup, HTM-path allocs/op) to the given file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hrwle/internal/harness"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate (fig3..fig10, retries, split, or 'all')")
		scale      = flag.Float64("scale", 1.0, "work multiplier per measurement point")
		out        = flag.String("o", "", "write results to file (default stdout)")
		list       = flag.Bool("list", false, "list available figures")
		quiet      = flag.Bool("q", false, "suppress per-point progress")
		threads    = flag.String("threads", "", "override thread counts, e.g. 2,8,32")
		metricsDir = flag.String("metrics-dir", "", "collect obs telemetry and write one RunMetrics JSON per (figure, scheme) into this directory (e.g. results/metrics)")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "measurement points to run concurrently")
		bench      = flag.String("bench", "", "run the fixed wall-clock mini-sweep and write a BenchReport JSON to this file")
		benchBase  = flag.String("bench-baseline", "", "prior BenchReport JSON to compare against in -bench mode")
	)
	flag.Parse()

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	if *bench != "" {
		rep, err := harness.RunBench(*jobs, *benchBase, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Println(rep.Summary())
		fmt.Printf("report written to %s\n", *bench)
		return
	}

	figs := harness.Registry()
	if *list || *fig == "" {
		fmt.Println("available figures:")
		for _, id := range harness.SortedIDs(figs) {
			fmt.Printf("  %-8s %s\n", id, figs[id].Title)
		}
		return
	}

	var threadCounts []int
	if *threads != "" {
		var err error
		if threadCounts, err = parseInts(*threads); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var ids []string
	if *fig == "all" {
		ids = harness.SortedIDs(figs)
	} else {
		if _, ok := figs[*fig]; !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (use -list)\n", *fig)
			os.Exit(1)
		}
		ids = []string{*fig}
	}

	var totalEvents int64
	for _, id := range ids {
		spec := figs[id]
		if threadCounts != nil {
			spec.Threads = threadCounts
		}
		start := time.Now()
		var results []harness.Result
		if *metricsDir != "" {
			var err error
			var events int64
			results, events, err = harness.RunWithMetrics(spec, *scale, progress, *metricsDir, *jobs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			totalEvents += events
		} else {
			results = spec.RunParallel(*scale, progress, *jobs)
		}
		harness.Print(w, spec, results)
		fmt.Fprintf(os.Stderr, "%s done in %.1fs wall\n", id, time.Since(start).Seconds())
	}
	if *metricsDir != "" {
		fmt.Fprintf(os.Stderr, "metrics JSON written to %s (%d events traced)\n", *metricsDir, totalEvents)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad thread count %q (want positive integer)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// Command hrwle-bench regenerates the evaluation figures of "Hardware
// Read-Write Lock Elision" (EuroSys'16) on the simulated POWER8 machine.
//
// Usage:
//
//	hrwle-bench -list
//	hrwle-bench -fig fig3 [-scale 0.25] [-o fig3.txt]
//	hrwle-bench -fig all  [-scale 1] [-j 8]
//	hrwle-bench -fig fig5 -metrics-dir results/metrics   # + RunMetrics JSON
//
// Each figure prints three panels matching the paper: execution time (or
// throughput), the abort-cause breakdown, and the commit-path breakdown.
// -scale multiplies the amount of work per point (1 = the default recorded
// in EXPERIMENTS.md; smaller is faster and noisier). -j runs that many
// measurement points concurrently (each point is an independent simulated
// machine; results are deterministic and ordered regardless of -j).
//
// The wall-clock benchmark of the simulator is simbench (simbench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate (fig3..fig10, retries, split, or 'all')")
		scale      = flag.Float64("scale", 1.0, "work multiplier per measurement point")
		list       = flag.Bool("list", false, "list available figures")
		threads    = flag.String("threads", "", "override thread counts, e.g. 2,8,32")
		metricsDir = flag.String("metrics-dir", "", "collect obs telemetry and write one RunMetrics JSON per (figure, scheme) into this directory (e.g. results/metrics)")
		sweep      = cli.SweepFlags()
	)
	flag.Parse()

	figs := harness.Registry()
	if *list || *fig == "" {
		fmt.Println("available figures:")
		for _, id := range harness.SortedIDs(figs) {
			fmt.Printf("  %-8s %s\n", id, figs[id].Title)
		}
		return
	}

	var threadCounts []int
	if err := cli.Threads(&threadCounts, *threads); err != nil {
		cli.Fatal(err)
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = harness.SortedIDs(figs)
	} else if _, ok := figs[*fig]; !ok {
		cli.Fatal(fmt.Errorf("unknown figure %q (use -list)", *fig))
	}

	w, err := cli.Create(sweep.Out)
	if err != nil {
		cli.Fatal(err)
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
			var events int64
			results, events, err = harness.RunWithMetrics(spec, *scale, sweep.Progress(), *metricsDir, sweep.Jobs)
			if err != nil {
				cli.Fatal(err)
			}
			totalEvents += events
		} else {
			results = spec.RunParallel(*scale, sweep.Progress(), sweep.Jobs)
		}
		harness.Print(w, spec, results)
		fmt.Fprintf(os.Stderr, "%s done in %.1fs wall\n", id, time.Since(start).Seconds())
	}
	if err := w.Close(); err != nil {
		cli.Fatal(err)
	}
	if *metricsDir != "" {
		fmt.Fprintf(os.Stderr, "metrics JSON written to %s (%d events traced)\n", *metricsDir, totalEvents)
	}
}

// Command hrwle-prof runs the virtual-time profiler: one open-system
// measurement point per scheme at a calibrated offered load, with every
// simulated cycle attributed to a category (useful committed work, wasted
// speculation, lock waiting, quiescence, fallback serialization,
// application work, idle) and the windowed telemetry series (throughput,
// abort rate, commit-path mix, queue depth, sojourn p99) rendered as
// sparklines.
//
// The default load is the workload's saturation knee — the point where the
// schemes' cycle mixes diverge most (see EXPERIMENTS.md). Attribution is
// exact: per point, the categories sum to servers × sim_cycles, and the
// profiler never perturbs the simulation (sim_cycles are identical with
// profiling on or off).
//
// Usage:
//
//	hrwle-prof -list
//	hrwle-prof -workload hashmap
//	hrwle-prof -workload all -o results/prof.txt -json results/prof.json
//	hrwle-prof -workload tpcc -schemes all -rate 5e5 -window 1e6
//	hrwle-prof -workload kyoto -servers 4 -requests 1000 -j 8
//
// Output is deterministic: the same flags produce byte-identical text and
// JSON at any -j.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
	"hrwle/internal/service"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to profile (hashmap|kyoto|tpcc|all)")
		list     = flag.Bool("list", false, "list workloads and their default knee loads")
		schemes  = flag.String("schemes", "", "comma-separated scheme list, or 'all' (default RW-LE_OPT,HLE,RWL,SGL)")
		rate     = flag.Float64("rate", 0, "offered load, req/s (default: the workload's saturation knee)")
		window   = flag.Float64("window", 0, "profiling window width in virtual cycles (default 250000)")
		jsonOut  = flag.String("json", "", "write the ProfReport JSON to file")
		svc      = cli.ServiceFlags(service.DefaultConfig(""), true)
		sweep    = cli.SweepFlags()
	)
	flag.Parse()

	if *list || *workload == "" {
		fmt.Println("available workloads (default knee load, req/s):")
		for _, wl := range harness.ServeWorkloads() {
			spec, _ := harness.DefaultProfSpec(wl)
			fmt.Printf("  %-8s %s\n", wl, strconv.FormatFloat(spec.RatePerSec, 'g', -1, 64))
		}
		fmt.Printf("default schemes: %s\n", strings.Join(harness.ServeSchemes(), ","))
		fmt.Printf("all schemes:     %s\n", strings.Join(harness.AllSchemes(), ","))
		return
	}

	workloads := []string{*workload}
	if *workload == "all" {
		workloads = harness.ServeWorkloads()
	}

	w, err := cli.Create(sweep.Out)
	if err != nil {
		cli.Fatal(err)
	}
	var reports []*harness.ProfReport
	for _, wl := range workloads {
		spec, err := harness.DefaultProfSpec(wl)
		if err != nil {
			cli.Fatal(err)
		}
		switch *schemes {
		case "":
		case "all":
			spec.Schemes = harness.AllSchemes()
		default:
			spec.Schemes = cli.Split(*schemes)
		}
		err = errors.Join(
			cli.Set(&spec.RatePerSec, "rate", *rate),
			cli.SetCycles(&spec.WindowCycles, "window", *window),
			svc.Apply(&spec.Base),
		)
		if err != nil {
			cli.Fatal(err)
		}

		start := time.Now()
		rep, err := harness.RunProf(spec, sweep.Jobs, sweep.Progress())
		if err != nil {
			cli.Fatal(err)
		}
		rep.WriteText(w)
		fmt.Fprintln(w)
		reports = append(reports, rep)
		fmt.Fprintf(os.Stderr, "prof %s done in %.1fs wall\n", wl, time.Since(start).Seconds())
	}
	if err := w.Close(); err != nil {
		cli.Fatal(err)
	}
	if *jsonOut != "" {
		if err := cli.WriteAll(*jsonOut, reports, (*harness.ProfReport).WriteJSON); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON written to %s\n", *jsonOut)
	}
}

// Command hrwle-serve runs the open-system service workload: seeded
// stochastic arrivals dispatched from a bounded priority queue onto an
// RW-LE-protected structure, sweeping offered load across lock schemes
// and reporting sojourn-time percentiles per priority class.
//
// Usage:
//
//	hrwle-serve -list
//	hrwle-serve -workload hashmap [-o serve.txt] [-json serve.json] [-j 8]
//	hrwle-serve -workload all -o results/serve.txt
//	hrwle-serve -workload tpcc -schemes RW-LE_OPT,SGL -rates 1e5,3e5
//	hrwle-serve -workload kyoto -arrivals mmpp -seed 7
//	hrwle-serve -workload hashmap -schemes RW-LE_OPT -rates 3e6 -chrome t.json
//	hrwle-serve -workload hashmap -schemes RW-LE_OPT -rates 3e6 -sanitize
//
// The default rate grids straddle every default scheme's saturation knee
// (see EXPERIMENTS.md). Output is deterministic: the same flags produce
// byte-identical text and JSON at any -j.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/service"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to serve (hashmap|kyoto|tpcc|all)")
		list     = flag.Bool("list", false, "list workloads and their default sweeps")
		schemes  = flag.String("schemes", "", "comma-separated scheme list (default RW-LE_OPT,HLE,RWL,SGL)")
		rates    = flag.String("rates", "", "comma-separated offered loads, req/s (default: calibrated per workload)")
		jsonOut  = flag.String("json", "", "write the ServeReport JSON to file")
		chrome   = flag.String("chrome", "", "write a Chrome trace of the run (single scheme and rate only)")
		timeline = flag.String("timeline", "", "write the virtual-time profile JSON of the run (single scheme and rate only)")
		sanitize = flag.Bool("sanitize", false, "run one point under the simsan happens-before race detector (single scheme and rate only; exit 1 on any race)")
		window   = flag.Float64("window", harness.DefaultProfWindow, "profiling window width in virtual cycles (with -timeline)")
		svc      = cli.ServiceFlags(service.DefaultConfig(""), true)
		sweep    = cli.SweepFlags()
	)
	flag.Parse()

	if *list || *workload == "" {
		fmt.Println("available workloads (default offered-load grids, req/s):")
		for _, wl := range harness.ServeWorkloads() {
			spec, _ := harness.DefaultServeSpec(wl)
			fmt.Printf("  %-8s %s\n", wl, cli.Join(spec.Rates))
		}
		fmt.Printf("default schemes: %s\n", strings.Join(harness.ServeSchemes(), ","))
		return
	}

	workloads := []string{*workload}
	if *workload == "all" {
		workloads = harness.ServeWorkloads()
	}
	profWindow := int64(harness.DefaultProfWindow)
	if err := cli.SetCycles(&profWindow, "window", *window); err != nil {
		cli.Fatal(err)
	}
	onePoint := *sanitize || *chrome != "" || *timeline != ""

	w, err := cli.Create(sweep.Out)
	if err != nil {
		cli.Fatal(err)
	}
	var reports []*harness.ServeReport
	for _, wl := range workloads {
		spec, err := harness.DefaultServeSpec(wl)
		if err != nil {
			cli.Fatal(err)
		}
		if *schemes != "" {
			spec.Schemes = cli.Split(*schemes)
		}
		err = errors.Join(harness.CheckSchemes(spec.Schemes), cli.Rates(&spec.Rates, *rates), svc.Apply(&spec.Base))
		if err != nil {
			cli.Fatal(err)
		}

		if onePoint {
			if len(workloads) != 1 || len(spec.Schemes) != 1 || len(spec.Rates) != 1 {
				cli.Fatal(errors.New("-sanitize, -chrome and -timeline need exactly one workload, one -schemes entry and one -rates entry"))
			}
			if *sanitize {
				err = sanitizePoint(spec, *jsonOut, w)
			} else {
				err = tracePoint(spec, *chrome, *timeline, profWindow, w)
			}
			if err != nil {
				cli.Fatal(err)
			}
			break
		}

		start := time.Now()
		rep, err := harness.RunServe(spec, sweep.Jobs, sweep.Progress())
		if err != nil {
			cli.Fatal(err)
		}
		rep.WriteText(w)
		fmt.Fprintln(w)
		reports = append(reports, rep)
		fmt.Fprintf(os.Stderr, "serve %s done in %.1fs wall\n", wl, time.Since(start).Seconds())
	}
	if err := w.Close(); err != nil {
		cli.Fatal(err)
	}

	if *jsonOut != "" && !onePoint {
		if err := cli.WriteAll(*jsonOut, reports, (*harness.ServeReport).WriteJSON); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON written to %s\n", *jsonOut)
	}
}

// sanitizePoint serves the spec's single point with the simsan race
// detector attached, printing the point metrics and the race report (and
// writing the report JSON when -json was given). Any race is an error:
// the serve workloads run production-shaped sections, so a report here is
// either a scheme bug or a sanitizer false positive — both stop the line.
func sanitizePoint(spec harness.ServeSpec, jsonPath string, w io.Writer) error {
	cfg := spec.Base
	cfg.Arrivals.RatePerSec = spec.Rates[0]
	scheme := spec.Schemes[0]
	m, rep, err := service.RunPointSanitized(cfg, scheme, harness.SchemeFactory(scheme))
	if err != nil {
		return err
	}
	m.WriteText(w)
	fmt.Fprintln(w)
	rep.WriteText(w)
	if jsonPath != "" {
		if err := cli.WriteFile(jsonPath, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "race report JSON written to %s\n", jsonPath)
	}
	if rep.Racy() {
		return fmt.Errorf("simsan: %d race(s) under %s/%s", rep.Total, scheme, cfg.Workload)
	}
	return nil
}

// tracePoint runs the spec's single point with the requested collectors
// attached: a full event log for the Chrome trace (with queue-depth and
// in-flight counter tracks derived from the request log), and/or the
// virtual-time profiler for the timeline JSON and text panels.
func tracePoint(spec harness.ServeSpec, chromePath, timelinePath string, window int64, w io.Writer) error {
	cfg := spec.Base
	cfg.Arrivals.RatePerSec = spec.Rates[0]
	scheme := spec.Schemes[0]
	var observe func(*machine.Machine)
	var log *machine.LogTracer
	if chromePath != "" {
		log = &machine.LogTracer{}
		observe = func(mach *machine.Machine) { mach.SetTracer(log) }
	}
	var prof *obs.Profile
	if timelinePath != "" {
		prof = obs.NewProfile(window, len(cfg.Classes))
	}
	m, reqs, err := service.RunPointProfiled(cfg, scheme, harness.SchemeFactory(scheme), observe, prof)
	if err != nil {
		return err
	}
	m.WriteText(w)
	if prof != nil {
		rep := prof.Report(scheme, cfg.Workload)
		rep.Service = m
		rep.WriteText(w)
		if err := cli.WriteFile(timelinePath, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline profile (%d windows) written to %s\n",
			len(rep.Timeline.Windows), timelinePath)
	}
	if log != nil {
		err := cli.WriteFile(chromePath, func(f io.Writer) error {
			return obs.WriteChromeTraceCounters(f, log.Events, service.CounterTracks(reqs))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "Chrome trace (%d events) written to %s\n", len(log.Events), chromePath)
	}
	return nil
}

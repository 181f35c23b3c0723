// Command hrwle-shard runs the sharded scale-out deployment: a hash-
// partitioned KV store at 64–256 simulated CPUs under open-system load
// with Zipfian hot-key skew and a small fraction of cross-shard
// transactions, sweeping shard count × skew × lock scheme — including
// the per-shard adaptive controller that moves each shard between RW-LE,
// HLE and SGL online at quiesced boundaries.
//
// Usage:
//
//	hrwle-shard -list
//	hrwle-shard [-o shard.txt] [-json shard.json] [-j 8]
//	hrwle-shard -schemes adaptive,SGL -shards 16,64 -skews 0,1.2
//	hrwle-shard -servers 256 -rate 2e7 -requests 12000
//	hrwle-shard -schemes adaptive -shards 16 -skews 1.2 -seed 7
//
// Output is deterministic: the same flags produce byte-identical text
// and JSON at any -j.
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
		list     = flag.Bool("list", false, "print the default sweep and exit")
		schemes  = flag.String("schemes", "", "comma-separated scheme list (default adaptive,RW-LE_OPT,HLE,SGL)")
		shards   = flag.String("shards", "", "comma-separated shard counts (default 4,16,64)")
		skews    = flag.String("skews", "", "comma-separated Zipf exponents (default 0,0.9,1.2)")
		rate     = flag.Float64("rate", 0, "offered load, req/s (default: calibrated)")
		servers  = flag.Int("servers", 0, "serving CPUs (default 64, max 256)")
		requests = flag.Int("requests", 0, "arrivals per point (default 6000)")
		queueCap = flag.Int("queue-cap", 0, "dispatch queue bound (default 2048)")
		universe = flag.Int("universe", 0, "distinct keys (default 2097152)")
		crossPct = flag.Int("cross", -1, "percent of writes touching a second key (default 4)")
		window   = flag.Int64("window", 0, "controller window width, cycles (default 50000)")
		seed     = flag.Uint64("seed", 0, "schedule and machine seed (default 1)")
		out      = flag.String("o", "", "write the text report to file (default stdout)")
		jsonOut  = flag.String("json", "", "write the ShardReport JSON to file")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "measurement points to run concurrently")
		quiet    = flag.Bool("q", false, "suppress per-point progress")
	)
	flag.Parse()

	spec := harness.DefaultShardSpec()
	if *list {
		fmt.Printf("default sweep: schemes %s × shards %s × skews %s\n",
			strings.Join(spec.Schemes, ","), formatInts(spec.Shards), formatFloats(spec.Skews))
		fmt.Printf("base: %d servers, %d keys, %d requests at %g/s, cross %d%%, queue cap %d\n",
			spec.Base.Servers, spec.Base.Keys.Universe, spec.Base.Requests,
			spec.Base.Arrivals.RatePerSec, spec.Base.Keys.CrossPct, spec.Base.QueueCap)
		return
	}

	var err error
	if *schemes != "" {
		spec.Schemes = strings.Split(*schemes, ",")
	}
	if *shards != "" {
		if spec.Shards, err = parseInts(*shards); err != nil {
			fatal(err)
		}
	}
	if *skews != "" {
		if spec.Skews, err = parseFloats(*skews); err != nil {
			fatal(err)
		}
	}
	if *rate > 0 {
		spec.Base.Arrivals.RatePerSec = *rate
	}
	if *servers > 0 {
		spec.Base.Servers = *servers
	}
	if *requests > 0 {
		spec.Base.Requests = *requests
	}
	if *queueCap > 0 {
		spec.Base.QueueCap = *queueCap
	}
	if *universe > 0 {
		spec.Base.Keys.Universe = *universe
	}
	if *crossPct >= 0 {
		spec.Base.Keys.CrossPct = *crossPct
	}
	if *window > 0 {
		spec.Base.Window = *window
	}
	if *seed != 0 {
		spec.Base.Seed = *seed
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	rep, err := harness.RunShard(spec, *jobs, progress)
	if err != nil {
		fatal(err)
	}
	rep.WriteText(w)
	fmt.Fprintf(os.Stderr, "shard sweep (%d points) done in %.1fs wall\n",
		len(rep.Points), time.Since(start).Seconds())

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON written to %s\n", *jsonOut)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad count %q (want positive integer)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad skew %q (want a number)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func formatInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

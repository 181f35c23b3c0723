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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
)

func main() {
	spec := harness.DefaultShardSpec()
	var (
		list     = flag.Bool("list", false, "print the default sweep and exit")
		schemes  = flag.String("schemes", "", "comma-separated scheme list (default adaptive,RW-LE_OPT,HLE,SGL)")
		shards   = flag.String("shards", "", "comma-separated shard counts (default 4,16,64)")
		skews    = flag.String("skews", "", "comma-separated Zipf exponents (default 0,0.9,1.2)")
		rate     = flag.Float64("rate", 0, "offered load, req/s (default: calibrated)")
		universe = flag.Int("universe", 0, "distinct keys (default 2097152)")
		crossPct = flag.Int("cross", -1, "percent of writes touching a second key (default 4)")
		window   = flag.Float64("window", 0, "controller window width, cycles (default 50000)")
		jsonOut  = flag.String("json", "", "write the ShardReport JSON to file")
		svc      = cli.ServiceFlags(spec.Base.Config, false)
		sweep    = cli.SweepFlags()
	)
	flag.Parse()

	if *list {
		fmt.Printf("default sweep: schemes %s × shards %s × skews %s\n",
			strings.Join(spec.Schemes, ","), cli.Join(spec.Shards), cli.Join(spec.Skews))
		fmt.Printf("base: %d servers, %d keys, %d requests at %g/s, cross %d%%, queue cap %d\n",
			spec.Base.Servers, spec.Base.Keys.Universe, spec.Base.Requests,
			spec.Base.Arrivals.RatePerSec, spec.Base.Keys.CrossPct, spec.Base.QueueCap)
		return
	}

	if *schemes != "" {
		spec.Schemes = cli.Split(*schemes)
	}
	var err error
	if *crossPct != -1 { // -1 keeps the default
		err = cli.Range("cross", *crossPct, 0, 100)
		spec.Base.Keys.CrossPct = *crossPct
	}
	err = errors.Join(err,
		cli.Shards(&spec.Shards, *shards),
		cli.Skews(&spec.Skews, *skews),
		svc.Apply(&spec.Base.Config),
		cli.Set(&spec.Base.Arrivals.RatePerSec, "rate", *rate),
		cli.Set(&spec.Base.Keys.Universe, "universe", *universe),
		cli.SetCycles(&spec.Base.Window, "window", *window),
	)
	if err != nil {
		cli.Fatal(err)
	}

	w, err := cli.Create(sweep.Out)
	if err != nil {
		cli.Fatal(err)
	}
	start := time.Now()
	rep, err := harness.RunShard(spec, sweep.Jobs, sweep.Progress())
	if err != nil {
		cli.Fatal(err)
	}
	rep.WriteText(w)
	if err := w.Close(); err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "shard sweep (%d points) done in %.1fs wall\n",
		len(rep.Points), time.Since(start).Seconds())

	if *jsonOut != "" {
		if err := cli.WriteFile(*jsonOut, rep.WriteJSON); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON written to %s\n", *jsonOut)
	}
}

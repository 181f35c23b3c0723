package main

import (
	"encoding/json"
	"fmt"
	"os"

	"hrwle/internal/harness"
)

// shardRecordPath is the recorded default hrwle-shard sweep, relative to
// the repository root (the benchmark's working directory).
const shardRecordPath = "results/shard.json"

// shardKey locates a shard-knee point in the recorded sweep.
type shardKey struct {
	scheme string
	shards int
	skew   float64
}

// matchShardRecord compares each shard-knee point's throughput, drops and
// per-class sojourn p99 with the matching row of results/shard.json.
func matchShardRecord(outs []*outcome, keys []shardKey) []string {
	data, err := os.ReadFile(shardRecordPath)
	if err != nil {
		return []string{fmt.Sprintf("shard-knee: reading the recorded sweep: %v", err)}
	}
	var rec harness.ShardReport
	if err := json.Unmarshal(data, &rec); err != nil {
		return []string{fmt.Sprintf("shard-knee: decoding %s: %v", shardRecordPath, err)}
	}
	var msgs []string
	for i, k := range keys {
		var want *harness.ShardPoint
		for _, p := range rec.Points {
			if p.Scheme == k.scheme && p.Shards == k.shards && p.Skew == k.skew {
				want = p
			}
		}
		if want == nil {
			msgs = append(msgs, fmt.Sprintf("shard-knee %v: no row in %s", k, shardRecordPath))
			continue
		}
		got, ws := outs[i].svc, want.Result.Service
		if got.AchievedPerSec != ws.AchievedPerSec || got.Dropped != ws.Dropped {
			msgs = append(msgs, fmt.Sprintf("shard-knee %v: achieved %v/s dropped %d, recorded %v/s dropped %d",
				k, got.AchievedPerSec, got.Dropped, ws.AchievedPerSec, ws.Dropped))
			continue
		}
		if len(got.Classes) != len(ws.Classes) {
			msgs = append(msgs, fmt.Sprintf("shard-knee %v: %d classes, recorded %d", k, len(got.Classes), len(ws.Classes)))
			continue
		}
		for c := range ws.Classes {
			if g, r := got.Classes[c].Sojourn.P99Cycles, ws.Classes[c].Sojourn.P99Cycles; g != r {
				msgs = append(msgs, fmt.Sprintf("shard-knee %v class %s: sojourn p99 %v cycles, recorded %v",
					k, ws.Classes[c].Class, g, r))
			}
		}
	}
	return msgs
}

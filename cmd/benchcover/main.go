// Command benchcover runs the shard benchmark series programmatically
// (testing.Benchmark) and writes it to BENCH_shard.json: the shard
// backend at 1/2/4/8 shards against the serial native baseline, with
// the speedup and the GOMAXPROCS the run saw (sharded speedup needs
// cores to spread over).
//
// The shard series includes a hand-built shuffle cover (QShuffle:
// memberOf(x, d) joined with Department(d) on d, which no shard
// partitioning aligns first-position) so the exchange path is measured
// alongside the aligned plans, plus one warm-cache point showing the
// shard answer cache replaying the same plan.
//
// Usage:
//
//	benchcover                      # BENCH_shard.json
//	benchcover -shard-o shard.json -scale 8
//	benchcover -short               # CI smoke: scale-1 DB, QShuffle only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/shard"
)

// ShardEntry is one point of the BENCH_shard.json series: the shard
// backend at a given fan-out against the serial native baseline on the
// same plan. Speedup > 1 needs cores to spread over — GoMaxProcs
// records how many the run had.
type ShardEntry struct {
	Query      string  `json:"query"`
	Shards     int     `json:"shards"` // 0 = the native baseline
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp int64   `json:"bytes_per_op"`
	Speedup    float64 `json:"speedup_vs_native"`
	GoMaxProcs int     `json:"gomaxprocs"`
	// Cached marks the warm-cache point: the shard answer cache replays
	// the per-shard results instead of re-executing. All other shard
	// points purge the cache every iteration.
	Cached bool `json:"cached,omitempty"`
	// Warning is set when the run cannot show what the series is for
	// (e.g. a single-core run cannot show parallel speedup).
	Warning string `json:"warning,omitempty"`
}

// shardWarning qualifies a shard series point measured without cores
// to spread over.
func shardWarning() string {
	if runtime.GOMAXPROCS(0) == 1 {
		return "single-core run (GOMAXPROCS=1): the shard series measures partition overhead, not parallel speedup"
	}
	return ""
}

// shuffleJUCQ builds the two-fragment cover whose join key no shard
// partitioning aligns first-position: memberOf(x, d) binds d in object
// position, Department(d) in subject position, so a hash-partitioned
// run must repartition the memberOf rows through the exchange to join
// shard-locally on d.
func shuffleJUCQ() (query.JUCQ, error) {
	f0, err := query.ParseCQ("q(x, d) <- memberOf(x, d)")
	if err != nil {
		return query.JUCQ{}, err
	}
	f1, err := query.ParseCQ("q(d) <- Department(d)")
	if err != nil {
		return query.JUCQ{}, err
	}
	return query.JUCQ{
		Name: "QShuffle",
		Head: f0.Head,
		Subs: []query.UCQ{
			{Name: "f0", Disjuncts: []query.CQ{f0}},
			{Name: "f1", Disjuncts: []query.CQ{f1}},
		},
	}, nil
}

// shardCase is one plan of the shard series.
type shardCase struct {
	name string
	ir   *plan.Node
}

// shardCases assembles the shard-series workload: the Q3/Q9 cover
// plans (aligned, skipped in short mode) plus the QShuffle exchange
// plan.
func shardCases(env *exp.Env, short bool) ([]shardCase, error) {
	var cases []shardCase
	if !short {
		ref := reformulate.New(env.TBox)
		for _, qi := range []int{2, 8} { // Q3, Q9
			q := lubm.Queries()[qi]
			c := cover.RootCover(q, env.TBox)
			j, err := c.ReformulateJUCQ(ref)
			if err != nil {
				return nil, err
			}
			cases = append(cases, shardCase{q.Name, plan.Rewrite(plan.FromJUCQ(j))})
		}
	}
	j, err := shuffleJUCQ()
	if err != nil {
		return nil, err
	}
	cases = append(cases, shardCase{j.Name, plan.Rewrite(plan.FromJUCQ(j))})
	return cases, nil
}

// shardSeries measures the native serial baseline and the shard
// backend over the workload plans (fan-outs 1/2/4/8, or 1/2 in short
// mode). Shard iterations purge the backend's answer cache so the
// numbers measure execution, not replay; one extra warm-cache point at
// the largest fan-out shows what the cache saves.
func shardSeries(env *exp.Env, short bool) ([]ShardEntry, error) {
	cases, err := shardCases(env, short)
	if err != nil {
		return nil, err
	}
	fanouts := []int{1, 2, 4, 8}
	if short {
		fanouts = []int{1, 2}
	}
	var series []ShardEntry
	for _, c := range cases {
		ir := c.ir
		measure := func(b plan.Backend, workers int, purgeEach bool) (float64, int64, error) {
			exec, err := b.Compile(ir)
			if err != nil {
				return 0, 0, err
			}
			purger, _ := b.(interface{ PurgeCache() })
			r := testing.Benchmark(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					if purgeEach && purger != nil {
						purger.PurgeCache()
					}
					if _, err := exec.Run(workers); err != nil {
						tb.Fatal(err)
					}
				}
			})
			return float64(r.T.Nanoseconds()) / float64(r.N), r.AllocedBytesPerOp(), nil
		}
		baseNs, baseBytes, err := measure(engine.NewBackend(env.DB, env.Profile), 1, false)
		if err != nil {
			return nil, err
		}
		series = append(series, ShardEntry{
			Query: c.name, Shards: 0, NsPerOp: baseNs, BytesPerOp: baseBytes,
			Speedup: 1, GoMaxProcs: runtime.GOMAXPROCS(0), Warning: shardWarning(),
		})
		fmt.Printf("%-24s %14.0f ns/op %10d B/op  (native baseline)\n", c.name+"/native", baseNs, baseBytes)
		for _, n := range fanouts {
			sb, err := shard.New(env.DB, env.Profile, n)
			if err != nil {
				return nil, err
			}
			ns, bytes, err := measure(sb, n, true)
			if err != nil {
				return nil, err
			}
			series = append(series, ShardEntry{
				Query: c.name, Shards: n, NsPerOp: ns, BytesPerOp: bytes,
				Speedup: baseNs / ns, GoMaxProcs: runtime.GOMAXPROCS(0), Warning: shardWarning(),
			})
			fmt.Printf("%-24s %14.0f ns/op %10d B/op  %5.2fx vs native\n",
				fmt.Sprintf("%s/shard-n%d", c.name, n), ns, bytes, baseNs/ns)
			if n == fanouts[len(fanouts)-1] {
				cns, cbytes, err := measure(sb, n, false)
				if err != nil {
					return nil, err
				}
				series = append(series, ShardEntry{
					Query: c.name, Shards: n, NsPerOp: cns, BytesPerOp: cbytes, Cached: true,
					Speedup: baseNs / cns, GoMaxProcs: runtime.GOMAXPROCS(0), Warning: shardWarning(),
				})
				fmt.Printf("%-24s %14.0f ns/op %10d B/op  %5.2fx vs native (warm cache)\n",
					fmt.Sprintf("%s/shard-n%d-cached", c.name, n), cns, cbytes, baseNs/cns)
			}
		}
	}
	return series, nil
}

func main() {
	var (
		shardOut = flag.String("shard-o", "BENCH_shard.json", "shard series output file")
		scale    = flag.Int("scale", 4, "universities in the generated database")
		seed     = flag.Int64("seed", 1, "generator seed")
		short    = flag.Bool("short", false, "smoke mode: scale-1 database, QShuffle only, shard fan-outs 1 and 2")
	)
	flag.Parse()
	if *short {
		*scale = 1
	}

	env := exp.BuildEnv(*scale, *seed, engine.LayoutSimple, engine.ProfilePostgres())
	series, err := shardSeries(env, *short)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcover:", err)
		os.Exit(1)
	}
	writeJSON(*shardOut, series)
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcover:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcover:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}

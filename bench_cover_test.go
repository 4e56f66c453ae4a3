// The shard benchmark: the native backend against the shard backend on
// multi-fragment root covers (cmd/benchcover emits the same series as
// BENCH_shard.json).
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/shard"
)

// coverBenchQueries picks the Q3/Q9-style workload queries whose root
// covers are genuinely multi-fragment.
func coverBenchQueries() []query.CQ {
	qs := lubm.Queries()
	return []query.CQ{qs[2], qs[8]} // Q3, Q9
}

// BenchmarkCoverShard compares the native streaming backend (serial
// baseline) against the shard backend at 1/2/4/8 shards on the same
// workload plans. Partitioning happens once per shard count, outside
// the timed loop — the series measures steady-state execution, the
// regime a long-lived server runs in. On a single-core machine the
// sharded series degenerates to the partition-scan overhead; see
// BENCH_shard.json for the recorded GOMAXPROCS.
func BenchmarkCoverShard(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, q := range coverBenchQueries() {
		c := cover.RootCover(q, env.TBox)
		j, err := c.ReformulateJUCQ(ref)
		if err != nil {
			b.Fatal(err)
		}
		ir := plan.Rewrite(plan.FromJUCQ(j))
		b.Run(q.Name+"/native", func(b *testing.B) {
			b.ReportAllocs()
			exec, err := engine.NewBackend(env.DB, env.Profile).Compile(ir)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shard-n%d", q.Name, shards), func(b *testing.B) {
				b.ReportAllocs()
				sb, err := shard.New(env.DB, env.Profile, shards)
				if err != nil {
					b.Fatal(err)
				}
				exec, err := sb.Compile(ir)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exec.Run(shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Ablation benchmarks for design choices: the Postgres sampling
// shortcut, the RDF layout's column budget, reformulation memoization,
// UCQ-vs-USCQ factorization, the SQL round trip, the parallel union,
// and the streaming executor against the materializing one.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/sqlexec"
	"repro/internal/sqlgen"
)

// BenchmarkAblationSampling isolates the §6.3 estimation anomaly: GDL
// under the Postgres profile with and without the sampling shortcut on
// Q9 (whose reformulation has 300 arms). Without sampling the search
// costs more but picks the better cover.
func BenchmarkAblationSampling(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	q9 := lubm.Queries()[8]
	run := func(b *testing.B, sampled bool) {
		prof := engine.ProfilePostgres()
		if !sampled {
			prof.SampleThreshold = 0
		}
		for i := 0; i < b.N; i++ {
			est := &search.RDBMSEstimator{DB: env.DB, Profile: prof}
			res := search.GDL(q9, env.TBox, ref, est, search.Options{})
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.Run("Q9/sampled-estimation", func(b *testing.B) { run(b, true) })
	b.Run("Q9/full-estimation", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationRDFSlots sweeps the RDF layout's hashed-column
// budget: more columns mean longer SQL per atom (the statement-length
// failure driver) and slower probes.
func BenchmarkAblationRDFSlots(b *testing.B) {
	u := reformulate.New(lubm.TBox())
	q3 := lubm.Queries()[2]
	ucq := u.MustReformulate(q3)
	for _, slots := range []int{6, 12, 24} {
		b.Run(fmt.Sprintf("slots=%d/sqlgen", slots), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				size = len(sqlgen.UCQ(ucq, sqlgen.Options{Layout: engine.LayoutRDF, Slots: slots}))
			}
			b.ReportMetric(float64(size), "sql-bytes")
		})
	}
}

// BenchmarkAblationMemoization compares GDL with a shared (memoizing)
// Reformulator against a fresh one per cover estimate — the reuse that
// makes cover search affordable.
func BenchmarkAblationMemoization(b *testing.B) {
	env, _, _ := benchEnvs()
	q := lubm.Queries()[9] // Q10, 9 atoms
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref := reformulate.New(env.TBox) // shared across the search
			est := &search.ExtEstimator{Model: cost.NewModel(env.DB)}
			res := search.GDL(q, env.TBox, ref, est, search.Options{})
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("unmemoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Estimate every enumerated cover with a cold reformulator:
			// enumerate the same covers GDL's first round would.
			root := cover.RootCover(q, env.TBox)
			est := &search.ExtEstimator{Model: cost.NewModel(env.DB)}
			for f1 := 0; f1 < len(root.Frags); f1++ {
				for f2 := f1 + 1; f2 < len(root.Frags); f2++ {
					cold := reformulate.New(env.TBox)
					j, err := root.UnionFragments(f1, f2).ReformulateJUCQ(cold)
					if err != nil {
						b.Fatal(err)
					}
					est.Estimate(plan.FromJUCQ(j))
				}
			}
		}
	})
}

// BenchmarkAblationFactorization compares evaluating Q3's reformulation
// as a UCQ against the factorized USCQ ([33]'s finding that USCQs
// evaluate better).
func BenchmarkAblationFactorization(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	q3 := lubm.Queries()[2]
	ucq := ref.MustReformulate(q3)
	uscq := query.FactorizeUCQ(ucq)
	b.Run("ucq/160-arms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.EvaluateUCQ(ucq, env.DB, env.Profile)
		}
	})
	b.Run(fmt.Sprintf("uscq/%d-scqs", len(uscq.Disjuncts)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.EvaluateUSCQ(uscq, env.DB, env.Profile)
		}
	})
}

// BenchmarkAblationSQLPath compares the engine's native JUCQ evaluation
// with the full SQL round-trip (generate text, parse, execute) — the
// overhead a driver-to-RDBMS hop adds on top of plan execution.
func BenchmarkAblationSQLPath(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	q3 := lubm.Queries()[2]
	c := cover.RootCover(q3, env.TBox)
	j, err := c.ReformulateJUCQ(ref)
	if err != nil {
		b.Fatal(err)
	}
	sql := sqlgen.JUCQ(j, sqlgen.Options{Layout: engine.LayoutSimple})
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine.EvaluateJUCQ(j, env.DB, env.Profile)
		}
	})
	b.Run("sql-roundtrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlexec.Exec(sql, env.DB); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationParallelUnion sweeps worker counts for the largest
// workload reformulation (Q9, 300 arms), through the parallel union
// operator.
func BenchmarkAblationParallelUnion(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	exec := compileUCQ(b, env, ref.MustReformulate(lubm.Queries()[8]))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// compileUCQ compiles the UCQ's plan on the native backend.
func compileUCQ(b *testing.B, env *exp.Env, u query.UCQ) plan.Executable {
	b.Helper()
	exec, err := engine.NewBackend(env.DB, env.Profile).Compile(plan.FromUCQ(u))
	if err != nil {
		b.Fatal(err)
	}
	return exec
}

// BenchmarkAblationExecPath times the native backend's streaming
// operator pipeline on UCQ reformulations, cold (compile per execution)
// against warm (compiled once and run again, the serving mode). Run
// with -benchmem to see what compilation allocates.
func BenchmarkAblationExecPath(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, qi := range []int{2, 8} { // Q3 (160 arms), Q9 (300 arms)
		q := lubm.Queries()[qi]
		u := ref.MustReformulate(q)
		b.Run(q.Name+"/streaming-cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compileUCQ(b, env, u).Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.Name+"/streaming-warm", func(b *testing.B) {
			b.ReportAllocs()
			exec := compileUCQ(b, env, u)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Benchmarks regenerating the paper's evaluation artifacts (Section 6).
// One top-level benchmark per table/figure, with sub-benchmarks per
// query × strategy so `go test -bench=.` prints the same series the
// paper plots:
//
//	BenchmarkFigure2    — Fig. 2: Postgres profile, simple layout
//	BenchmarkFigure3    — Fig. 3: DB2 profile, simple + RDF layouts
//	BenchmarkTable6     — Tab. 6: search-space exploration for A3–A6
//	BenchmarkStats      — §2.3/6.1: CQ-to-UCQ reformulation per query
//	BenchmarkTimeLimitedGDL — §6.4: 20 ms-budget GDL
//	BenchmarkGDLSearch  — §6.3: full GDL search per query/estimator
//
// Dataset scale is kept benchmark-friendly (BenchUniversities); use
// cmd/experiments for larger runs.
package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/lubm"
	"repro/internal/reformulate"
	"repro/internal/search"
)

// BenchUniversities scales the benchmark databases.
const BenchUniversities = 4

var (
	envOnce sync.Once
	envPG   *exp.Env // Postgres profile, simple layout
	envDB2  *exp.Env // DB2 profile, simple layout
	envRDF  *exp.Env // DB2 profile, RDF layout
)

func benchEnvs() (*exp.Env, *exp.Env, *exp.Env) {
	envOnce.Do(func() {
		envPG = exp.BuildEnv(BenchUniversities, 1, engine.LayoutSimple, engine.ProfilePostgres())
		envDB2 = exp.BuildEnv(BenchUniversities, 1, engine.LayoutSimple, engine.ProfileDB2())
		envRDF = exp.BuildEnv(BenchUniversities, 1, engine.LayoutRDF, engine.ProfileDB2())
	})
	return envPG, envDB2, envRDF
}

// BenchmarkFigure2 measures evaluation time of each Figure 2 series
// (UCQ, Croot, GDL/RDBMS, GDL/ext) per workload query on the Postgres
// profile and simple layout.
func BenchmarkFigure2(b *testing.B) {
	env, _, _ := benchEnvs()
	for _, q := range lubm.Queries() {
		for _, s := range exp.Figure2Strategies() {
			b.Run(fmt.Sprintf("%s/%s", q.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cell := exp.RunCell(env, q, s)
					if cell.Err != nil {
						b.Fatal(cell.Err)
					}
				}
			})
		}
	}
}

// BenchmarkFigure3 measures the DB2-profile series of Figure 3 on both
// layouts; statement-too-long failures are reported as skips (the
// figure's grey bars), not errors.
func BenchmarkFigure3(b *testing.B) {
	_, envS, envR := benchEnvs()
	for _, q := range lubm.Queries() {
		for _, s := range exp.Figure2Strategies() {
			b.Run(fmt.Sprintf("%s/%s/simple", q.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if cell := exp.RunCell(envS, q, s); cell.Err != nil {
						b.Fatal(cell.Err)
					}
				}
			})
		}
		for _, s := range []core.Strategy{core.StrategyUCQ, core.StrategyCroot, core.StrategyGDLRDBMS} {
			b.Run(fmt.Sprintf("%s/%s/rdf", q.Name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cell := exp.RunCell(envR, q, s)
					if cell.Err != nil {
						var tooLong *engine.StatementTooLongError
						if asErr(cell.Err, &tooLong) {
							b.Skipf("statement too long (%d bytes) — Figure 3 failure bar", tooLong.Size)
						}
						b.Fatal(cell.Err)
					}
				}
			})
		}
	}
}

func asErr(err error, target **engine.StatementTooLongError) bool {
	t, ok := err.(*engine.StatementTooLongError)
	if ok {
		*target = t
	}
	return ok
}

// BenchmarkTable6 measures the cover-space work of Section 6.2: safe
// and generalized cover enumeration plus the GDL search, per star
// query.
func BenchmarkTable6(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, q := range lubm.StarQueries() {
		b.Run(q.Name+"/enumerate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cover.CountSafeCovers(q, env.TBox, 0)
				cover.CountGeneralizedCovers(q, env.TBox, exp.GqCap)
			}
		})
		b.Run(q.Name+"/gdl", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := search.GDL(q, env.TBox, ref,
					&search.ExtEstimator{Model: cost.NewModel(env.DB)}, search.Options{})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkStats measures CQ-to-UCQ reformulation time per workload
// query (the §6.1 reformulation-size discussion; RAPID's job in the
// paper). A fresh Reformulator per iteration defeats memoization.
func BenchmarkStats(b *testing.B) {
	tb := lubm.TBox()
	for _, q := range lubm.Queries() {
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ref := reformulate.New(tb)
				if _, err := ref.Reformulate(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimeLimitedGDL measures the §6.4 variant: GDL stopped after
// 20 ms, per query.
func BenchmarkTimeLimitedGDL(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	for _, q := range lubm.Queries() {
		b.Run(q.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Estimators remember the subtrees of the search they
				// served: one per search.
				est := &search.ExtEstimator{Model: cost.NewModel(env.DB)}
				res := search.GDL(q, env.TBox, ref, est, search.Options{TimeLimit: 20 * time.Millisecond})
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}

// BenchmarkGDLSearch measures full GDL per estimator on the largest
// workload query (the §6.3 "GDL ran between 1 ms and 207 ms" numbers).
func BenchmarkGDLSearch(b *testing.B) {
	env, _, _ := benchEnvs()
	ref := reformulate.New(env.TBox)
	q9 := lubm.Queries()[8]
	b.Run("Q9/ext", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.GDL(q9, env.TBox, ref, &search.ExtEstimator{Model: cost.NewModel(env.DB)}, search.Options{})
		}
	})
	b.Run("Q9/rdbms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.GDL(q9, env.TBox, ref, &search.RDBMSEstimator{DB: env.DB, Profile: env.Profile}, search.Options{})
		}
	})
}

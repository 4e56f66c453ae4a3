// Package exp implements the paper's experimental harness (Section 6):
// building scaled LUBM∃ databases, running every strategy over the
// workload on both engine profiles and layouts, and producing the rows
// behind each table and figure. cmd/experiments renders these rows as
// text tables; bench_test.go wraps them as testing.B benchmarks.
package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/sqlgen"
)

// Env bundles everything needed to run one experimental configuration.
type Env struct {
	TBox    *dllite.TBox
	DB      *engine.DB
	Profile *engine.Profile
	A       *core.Answerer
	Scale   int // universities
}

// BuildEnv generates a LUBM∃ database of the given scale (universities)
// and wires an Answerer. Layout and profile choose the configuration of
// Figures 2 and 3.
func BuildEnv(universities int, seed int64, layout engine.Layout, prof *engine.Profile) *Env {
	tb := lubm.TBox()
	db := engine.NewDB(layout)
	lubm.Generate(lubm.Config{Universities: universities, Seed: seed}, db)
	db.Finalize()
	return &Env{TBox: tb, DB: db, Profile: prof, A: core.New(tb, db, prof), Scale: universities}
}

// Cell is one measurement of one strategy on one query.
type Cell struct {
	Query    string
	Strategy core.Strategy
	Layout   engine.Layout

	EvalTime   time.Duration
	SearchTime time.Duration
	Answers    int
	Disjuncts  int
	Fragments  int
	SQLSize    int
	Err        error // e.g. statement too long (grey bars in Figure 3)
}

// Label renders the series name the way the figures do.
func (c Cell) Label() string {
	return fmt.Sprintf("%s / %s", c.Strategy, c.Layout)
}

// RunCell answers one query under one strategy and reports the cell.
func RunCell(env *Env, q query.CQ, s core.Strategy) Cell {
	res, err := env.A.Answer(q, s)
	cell := Cell{Query: q.Name, Strategy: s, Layout: env.DB.Layout, Err: err}
	if res != nil {
		cell.EvalTime = res.EvalTime
		cell.SearchTime = res.SearchTime
		cell.Answers = len(res.Tuples)
		cell.Disjuncts = res.NumDisjuncts
		cell.Fragments = res.NumFragments
		cell.SQLSize = res.SQLSize
	}
	return cell
}

// Figure2Strategies are the four series of Figure 2 (Postgres, simple
// layout): UCQ, Croot, GDL with the RDBMS cost model, GDL with ours.
func Figure2Strategies() []core.Strategy {
	return []core.Strategy{core.StrategyUCQ, core.StrategyCroot, core.StrategyGDLRDBMS, core.StrategyGDLExt}
}

// RunFigure2 evaluates the Q1–Q13 workload under the Figure 2 series.
func RunFigure2(env *Env) []Cell {
	var out []Cell
	for _, q := range lubm.Queries() {
		for _, s := range Figure2Strategies() {
			out = append(out, RunCell(env, q, s))
		}
	}
	return out
}

// RunFigure3 evaluates the workload under the Figure 3 series: the
// four simple-layout strategies on envSimple plus UCQ, Croot and
// GDL/RDBMS on envRDF (both environments must use the DB2 profile).
func RunFigure3(envSimple, envRDF *Env) []Cell {
	var out []Cell
	for _, q := range lubm.Queries() {
		for _, s := range Figure2Strategies() {
			out = append(out, RunCell(envSimple, q, s))
		}
		for _, s := range []core.Strategy{core.StrategyUCQ, core.StrategyCroot, core.StrategyGDLRDBMS} {
			out = append(out, RunCell(envRDF, q, s))
		}
	}
	return out
}

// Table6Row reproduces one row group of Table 6 for a star query.
type Table6Row struct {
	Query      string
	Atoms      int
	Lq         int // |Lq| (exact)
	Gq         int // |Gq| capped at GqCap
	GqCapped   bool
	GDLLq      int // Lq covers explored by GDL
	GDLGq      int // Gq covers explored by GDL
	GDLElapsed time.Duration
}

// GqCap mirrors the paper's enumeration cutoff for A6.
const GqCap = 20003

// RunTable6 computes the search-space statistics of Section 6.2.
func RunTable6(env *Env) []Table6Row {
	ref := reformulate.New(env.TBox)
	var rows []Table6Row
	for _, q := range lubm.StarQueries() {
		row := Table6Row{Query: q.Name, Atoms: len(q.Atoms)}
		row.Lq = cover.CountSafeCovers(q, env.TBox, 0)
		row.Gq = cover.CountGeneralizedCovers(q, env.TBox, GqCap)
		row.GqCapped = row.Gq >= GqCap
		res := search.GDL(q, env.TBox, ref,
			&search.ExtEstimator{Model: env.A.Model}, search.Options{})
		row.GDLLq = res.ExploredLq
		row.GDLGq = res.ExploredGq
		row.GDLElapsed = res.Elapsed
		rows = append(rows, row)
	}
	return rows
}

// StatsRow carries the per-query reformulation statistics of
// Sections 2.3 and 6.1.
type StatsRow struct {
	Query        string
	Atoms        int
	UCQSize      int
	MinUCQSize   int
	USCQSize     int // number of SCQs after factorization
	SQLSimple    int // bytes
	SQLRDF       int // bytes
	RDFTooLong   bool
	ReformSimple time.Duration
}

// RunStats computes reformulation sizes and SQL lengths per query.
// minimize controls whether the (quadratic) UCQ minimization runs.
func RunStats(env *Env, minimize bool) []StatsRow {
	ref := reformulate.New(env.TBox)
	limit := engine.ProfileDB2().MaxStatementBytes
	var rows []StatsRow
	for _, q := range lubm.Queries() {
		start := time.Now()
		u := ref.MustReformulate(q)
		elapsed := time.Since(start)
		row := StatsRow{
			Query:        q.Name,
			Atoms:        len(q.Atoms),
			UCQSize:      len(u.Disjuncts),
			USCQSize:     len(query.FactorizeUCQ(u).Disjuncts),
			ReformSimple: elapsed,
		}
		if minimize {
			row.MinUCQSize = len(u.Minimize().Disjuncts)
		}
		row.SQLSimple = len(sqlgen.UCQ(u, sqlgen.Options{Layout: engine.LayoutSimple}))
		row.SQLRDF = len(sqlgen.UCQ(u, sqlgen.Options{Layout: engine.LayoutRDF}))
		row.RDFTooLong = row.SQLRDF > limit
		rows = append(rows, row)
	}
	return rows
}

// TimeLimitedRow compares full GDL with the 20 ms-limited variant
// (Section 6.4).
type TimeLimitedRow struct {
	Query       string
	FullCost    float64
	FullTime    time.Duration
	LimitedCost float64
	LimitedTime time.Duration
	SameCover   bool
}

// RunTimeLimited compares GDL with and without the 20 ms budget.
func RunTimeLimited(env *Env, budget time.Duration) []TimeLimitedRow {
	ref := reformulate.New(env.TBox)
	est := &search.ExtEstimator{Model: env.A.Model}
	var rows []TimeLimitedRow
	for _, q := range lubm.Queries() {
		full := search.GDL(q, env.TBox, ref, est, search.Options{})
		limited := search.GDL(q, env.TBox, ref, est, search.Options{TimeLimit: budget})
		rows = append(rows, TimeLimitedRow{
			Query:       q.Name,
			FullCost:    full.Cost,
			FullTime:    full.Elapsed,
			LimitedCost: limited.Cost,
			LimitedTime: limited.Elapsed,
			SameCover:   full.Cover.Key() == limited.Cover.Key(),
		})
	}
	return rows
}

// MinVsBestRow reproduces the Section 2.3 headline comparison: the
// minimal UCQ reformulation evaluated directly versus the best
// cover-based reformulation found by GDL ("reduces this to 156 ms —
// 36 times faster — just by giving the engine a different (yet
// equivalent) SQLized FOL reformulation").
type MinVsBestRow struct {
	Query        string
	MinUCQSize   int
	MinimizeTime time.Duration // one-time cost of computing the minimal UCQ
	MinUCQTime   time.Duration
	BestTime     time.Duration
	BestCover    string
	SameAnswers  bool
}

// RunMinVsBest compares StrategyUCQMin with StrategyGDLExt per query.
// MinimizeTime is measured on a cold reformulator: minimization is
// quadratic in the union size with a homomorphism check per pair, the
// cost the paper's cover approach never pays ("our approach ... never
// requires work to detect common (repeated) sub-expressions").
func RunMinVsBest(env *Env) []MinVsBestRow {
	var rows []MinVsBestRow
	for _, q := range lubm.Queries() {
		cold := reformulate.New(env.TBox)
		startMin := time.Now()
		_, minErr := cold.ReformulateMinimal(q)
		minimizeTime := time.Since(startMin)
		minCell, _ := env.A.Answer(q, core.StrategyUCQMin)
		bestCell, _ := env.A.Answer(q, core.StrategyGDLExt)
		row := MinVsBestRow{Query: q.Name, MinimizeTime: minimizeTime}
		if minErr != nil {
			row.MinimizeTime = 0
		}
		if minCell != nil {
			row.MinUCQSize = minCell.NumDisjuncts
			row.MinUCQTime = minCell.EvalTime
		}
		if bestCell != nil {
			row.BestTime = bestCell.EvalTime
			row.BestCover = bestCell.Cover.String()
		}
		if minCell != nil && bestCell != nil {
			row.SameAnswers = len(minCell.Tuples) == len(bestCell.Tuples)
		}
		rows = append(rows, row)
	}
	return rows
}

// GCovRow reports whether GDL picked a generalized cover (Section 6.3:
// "always (when using our cost model) and about half of the time (with
// the RDBMS cost model), GDL picked a generalized cover").
type GCovRow struct {
	Query          string
	ExtGeneralized bool
	RDBMSGenerali  bool
}

// RunGCov measures how often each estimator's winner is generalized.
func RunGCov(env *Env) []GCovRow {
	ref := reformulate.New(env.TBox)
	ext := &search.ExtEstimator{Model: env.A.Model}
	rdbms := &search.RDBMSEstimator{DB: env.DB, Profile: env.Profile}
	var rows []GCovRow
	for _, q := range lubm.Queries() {
		re := search.GDL(q, env.TBox, ref, ext, search.Options{})
		rr := search.GDL(q, env.TBox, ref, rdbms, search.Options{})
		rows = append(rows, GCovRow{
			Query:          q.Name,
			ExtGeneralized: re.Cover.IsGeneralized(),
			RDBMSGenerali:  rr.Cover.IsGeneralized(),
		})
	}
	return rows
}

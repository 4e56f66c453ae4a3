package exp

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/reformulate"
)

func smallEnv(t *testing.T, layout engine.Layout, prof *engine.Profile) *Env {
	t.Helper()
	return BuildEnv(1, 11, layout, prof)
}

// TestStrategiesAgreeOnWorkload is the end-to-end correctness gate: on
// a generated database, every strategy returns the same number of
// certain answers for every workload query (Theorems 1 and 3 in vivo).
func TestStrategiesAgreeOnWorkload(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	for _, q := range lubm.Queries() {
		counts := map[core.Strategy]int{}
		for _, s := range Figure2Strategies() {
			cell := RunCell(env, q, s)
			if cell.Err != nil {
				t.Fatalf("%s/%s: %v", q.Name, s, cell.Err)
			}
			counts[s] = cell.Answers
		}
		base := counts[core.StrategyUCQ]
		for s, n := range counts {
			if n != base {
				t.Errorf("%s: strategy %s found %d answers, UCQ found %d", q.Name, s, n, base)
			}
		}
	}
}

// TestReasoningMatters: on the generated (incomplete) data, at least
// some queries must have answers that plain evaluation misses.
func TestReasoningMatters(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	gains := 0
	for _, q := range lubm.Queries() {
		plain := engine.EvaluateCQ(q, env.DB, env.Profile)
		cell := RunCell(env, q, core.StrategyUCQ)
		if cell.Err != nil {
			t.Fatal(cell.Err)
		}
		if cell.Answers < len(plain.Tuples) {
			t.Errorf("%s: reformulation lost answers (%d < %d)", q.Name, cell.Answers, len(plain.Tuples))
		}
		if cell.Answers > len(plain.Tuples) {
			gains++
		}
	}
	if gains < 5 {
		t.Errorf("only %d/13 queries gained answers from reasoning; the generator should be less complete", gains)
	}
}

func TestTable6Shape(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	rows := RunTable6(env)
	if len(rows) != 4 {
		t.Fatalf("want A3..A6, got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Atoms != i+3 {
			t.Errorf("%s atoms = %d", r.Query, r.Atoms)
		}
		if r.Gq < r.Lq {
			t.Errorf("%s: |Gq| (%d) < |Lq| (%d)", r.Query, r.Gq, r.Lq)
		}
		explored := r.GDLLq + r.GDLGq
		if explored == 0 {
			t.Errorf("%s: GDL explored nothing", r.Query)
		}
		if explored > r.Gq && !r.GqCapped {
			t.Errorf("%s: GDL explored %d > |Gq| %d", r.Query, explored, r.Gq)
		}
	}
	// The Table 6 headline: Gq growth makes EDL impractical by A6.
	if !rows[3].GqCapped {
		t.Errorf("A6 enumeration should hit the %d cutoff, got %d", GqCap, rows[3].Gq)
	}
	// GDL exploration grows very moderately with query size.
	if last := rows[3].GDLLq + rows[3].GDLGq; last > 400 {
		t.Errorf("GDL explored %d covers on A6; expected tens", last)
	}
}

func TestStatsRows(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	rows := RunStats(env, true)
	if len(rows) != 13 {
		t.Fatalf("want 13 rows")
	}
	for _, r := range rows {
		if r.UCQSize <= 0 || r.SQLSimple <= 0 || r.SQLRDF <= 0 {
			t.Errorf("%s: degenerate stats %+v", r.Query, r)
		}
		if r.MinUCQSize > r.UCQSize {
			t.Errorf("%s: minimal UCQ larger than UCQ", r.Query)
		}
		if r.USCQSize > r.UCQSize {
			t.Errorf("%s: USCQ larger than UCQ", r.Query)
		}
		if r.SQLRDF <= r.SQLSimple {
			t.Errorf("%s: RDF SQL (%d) should exceed simple SQL (%d)", r.Query, r.SQLRDF, r.SQLSimple)
		}
	}
	// Section 6.3's failure mode: at least one query's RDF-layout SQL
	// exceeds DB2's statement limit.
	tooLong := 0
	for _, r := range rows {
		if r.RDFTooLong {
			tooLong++
		}
	}
	if tooLong == 0 {
		t.Error("no query exceeds the DB2 statement limit on the RDF layout; Figure 3's failures would not reproduce")
	}
}

// TestFigure3Failures: running the actual Figure 3 harness at small
// scale produces statement-too-long errors on the RDF layout only.
func TestFigure3Failures(t *testing.T) {
	envS := smallEnv(t, engine.LayoutSimple, engine.ProfileDB2())
	envR := smallEnv(t, engine.LayoutRDF, engine.ProfileDB2())
	cells := RunFigure3(envS, envR)
	simpleErrs, rdfErrs := 0, 0
	for _, c := range cells {
		if c.Err == nil {
			continue
		}
		var tooLong *engine.StatementTooLongError
		if !errors.As(c.Err, &tooLong) {
			t.Fatalf("%s/%s: unexpected error %v", c.Query, c.Strategy, c.Err)
		}
		if c.Layout == engine.LayoutRDF {
			rdfErrs++
		} else {
			simpleErrs++
		}
	}
	if simpleErrs != 0 {
		t.Errorf("simple layout should never exceed the limit, got %d failures", simpleErrs)
	}
	if rdfErrs == 0 {
		t.Error("RDF layout should produce statement-too-long failures (Figure 3 grey bars)")
	}
}

func TestTimeLimitedRows(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	rows := RunTimeLimited(env, 20*time.Millisecond)
	if len(rows) != 13 {
		t.Fatalf("want 13 rows")
	}
	for _, r := range rows {
		if r.LimitedCost < r.FullCost {
			t.Errorf("%s: limited GDL found a better cover than full GDL", r.Query)
		}
	}
}

func TestGCovRows(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	rows := RunGCov(env)
	extGen := 0
	for _, r := range rows {
		if r.ExtGeneralized {
			extGen++
		}
	}
	// Section 6.3: GDL regularly picks generalized covers ("always" on
	// the paper's workload with their model; "about half the time" with
	// the RDBMS's). Our workload must exhibit the effect on several
	// queries for the Gq space to be worth searching.
	if extGen < 2 {
		t.Errorf("GDL/ext picked generalized covers on %d/13 queries; expected several", extGen)
	}
}

func TestMinVsBestRows(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	rows := RunMinVsBest(env)
	if len(rows) != 13 {
		t.Fatalf("want 13 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.SameAnswers {
			t.Errorf("%s: minimal UCQ and best cover disagree on answers", r.Query)
		}
		if r.MinUCQSize <= 0 {
			t.Errorf("%s: minimal UCQ size missing", r.Query)
		}
	}
}

// tupleSet canonicalizes decoded tuples for set comparison.
func tupleSet(tuples [][]string) map[string]bool {
	out := make(map[string]bool, len(tuples))
	for _, tu := range tuples {
		out[strings.Join(tu, "\x00")] = true
	}
	return out
}

// TestStrategiesMatchMaterializedOnLUBM is the executor-refactor gate:
// on the LUBM∃ suite, every core strategy — now running through the
// streaming operator pipeline — returns exactly the certain answers the
// old materialize-everything executor computes for the full UCQ
// reformulation. EDL is exercised on the small queries it is meant for
// (the paper's cutoff makes it impractical beyond that).
func TestStrategiesMatchMaterializedOnLUBM(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	ref := reformulate.New(env.TBox)
	for _, q := range lubm.Queries() {
		u := ref.MustReformulate(q)
		oracle := engine.ExecUCQMaterialized(u, env.DB, env.Profile)
		want := tupleSet(oracle.Decode(env.DB.Dict))
		strategies := []core.Strategy{
			core.StrategyUCQ, core.StrategyUSCQ, core.StrategyCroot,
			core.StrategyGDLRDBMS, core.StrategyGDLExt,
		}
		if len(q.Atoms) <= 4 {
			strategies = append(strategies, core.StrategyEDL)
		}
		for _, s := range strategies {
			res, err := env.A.Answer(q, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, s, err)
			}
			got := tupleSet(res.Tuples)
			if len(got) != len(want) {
				t.Errorf("%s/%s: %d answers, materialized oracle has %d", q.Name, s, len(got), len(want))
				continue
			}
			for k := range want {
				if !got[k] {
					t.Errorf("%s/%s: missing tuple present in materialized oracle", q.Name, s)
					break
				}
			}
		}
	}
}

// TestParallelAnswererMatchesSequential: Answerer.Workers routes union
// evaluation through the parallel union operator without changing the
// certain answers.
func TestParallelAnswererMatchesSequential(t *testing.T) {
	env := smallEnv(t, engine.LayoutSimple, engine.ProfilePostgres())
	par := core.New(env.TBox, env.DB, env.Profile)
	par.Workers = 4
	for _, q := range lubm.Queries()[:6] {
		seq, err := env.A.Answer(q, core.StrategyUCQ)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Answer(q, core.StrategyUCQ)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tupleSet(seq.Tuples), tupleSet(got.Tuples)) {
			t.Errorf("%s: parallel answerer differs (%d vs %d tuples)", q.Name, len(got.Tuples), len(seq.Tuples))
		}
	}
}

package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/sqlexec"
	"repro/internal/sqlgen"
)

// TestViaSQLMatchesNative: routing evaluation through the generated SQL
// text (parse + execute) produces exactly the native answers for every
// strategy on the paper's running example.
func TestViaSQLMatchesNative(t *testing.T) {
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	native := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	sqlPath := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	sqlPath.Backend = sqlexec.NewBackend(sqlPath.DB, sqlPath.Profile)
	for _, s := range []Strategy{StrategyUCQ, StrategyCroot, StrategyGDLExt} {
		rn, err := native.Answer(q, s)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sqlPath.Answer(q, s)
		if err != nil {
			t.Fatalf("%s via SQL: %v", s, err)
		}
		if len(rn.Tuples) != len(rs.Tuples) {
			t.Fatalf("%s: native %d vs SQL-path %d answers", s, len(rn.Tuples), len(rs.Tuples))
		}
		seen := map[string]bool{}
		for _, tu := range rn.Tuples {
			seen[strings.Join(tu, "\x00")] = true
		}
		for _, tu := range rs.Tuples {
			if !seen[strings.Join(tu, "\x00")] {
				t.Errorf("%s: SQL path produced extra tuple %v", s, tu)
			}
		}
	}
}

// TestViaSQLWorkload runs the SQL path over the LUBM∃ workload under
// the Croot strategy (the WITH-heavy shape).
func TestViaSQLWorkload(t *testing.T) {
	tb := lubm.TBox()
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 2}, db)
	db.Finalize()
	native := New(tb, db, engine.ProfilePostgres())
	viaSQL := New(tb, db, engine.ProfilePostgres())
	viaSQL.Backend = sqlexec.NewBackend(viaSQL.DB, viaSQL.Profile)
	for _, q := range lubm.Queries() {
		rn, err := native.Answer(q, StrategyCroot)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := viaSQL.Answer(q, StrategyCroot)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if len(rn.Tuples) != len(rs.Tuples) {
			t.Errorf("%s: native %d vs SQL-path %d answers", q.Name, len(rn.Tuples), len(rs.Tuples))
		}
	}
}

// TestPrettySQLAnswersEveryStrategy: the pretty statement cmd/obda -sql
// prints — the chosen plan rendered through sqlgen.Render — parses and
// answers, through sqlexec.Exec, exactly what the strategy answered,
// for every strategy (the uscq statement once came out empty).
func TestPrettySQLAnswersEveryStrategy(t *testing.T) {
	example := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	cases := map[*Answerer][]query.CQ{
		example:         {query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")},
		lubmAnswerer(t): sweepQueries(),
	}
	for a, qs := range cases {
		for _, q := range qs {
			for _, s := range Strategies() {
				res, err := a.Answer(q, s)
				if err != nil {
					t.Fatalf("%s/%s: %v", q.Name, s, err)
				}
				sql, err := sqlgen.Render(res.Plan, sqlgen.Options{Layout: a.DB.Layout, Pretty: true, Args: res.Args})
				if err != nil {
					t.Fatalf("%s/%s: %v", q.Name, s, err)
				}
				rel, err := sqlexec.Exec(sql, a.DB)
				if err != nil {
					t.Fatalf("%s/%s: %v\n%s", q.Name, s, err, sql)
				}
				if got, want := sorted(rel.Decode(a.DB.Dict)), sorted(res.Tuples); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: the pretty SQL answers %d tuples, the strategy %d", q.Name, s, len(got), len(want))
				}
			}
		}
	}
}

// TestSQLExplainEstimateIsNotLastActual: the sql backend's EXPLAIN
// estimate is the native estimator's, on every run — an earlier run's
// actual row count never replaces it, so estimated and actual rows stay
// comparable.
func TestSQLExplainEstimateIsNotLastActual(t *testing.T) {
	tb, db, prof := lubm.TBox(), goldenDB(engine.LayoutSimple), engine.ProfilePostgres()
	a := New(tb, db, prof)
	a.Cache = nil
	a.Backend = sqlexec.NewBackend(db, prof)
	for _, q := range goldenQueries() {
		var res *Result
		for range 2 {
			var err error
			if res, err = a.Answer(q, StrategyUCQ); err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
		}
		want := engine.NewBackend(db, prof).Estimate(res.Plan).Card
		if got := res.Explain.EstCard; got != want {
			t.Errorf("%s: second run's EXPLAIN estCard = %v, want the native estimate %v (actual rows %d)",
				q.Name, got, want, res.Explain.Root.ActualRows)
		}
	}
}

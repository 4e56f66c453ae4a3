package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlexec"
)

// lubmAnswerer wires an Answerer over a 1-university LUBM∃ database.
func lubmAnswerer(t *testing.T) *Answerer {
	t.Helper()
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 2}, db)
	db.Finalize()
	return New(lubm.TBox(), db, engine.ProfilePostgres())
}

// emptyAnswerer wires an Answerer over a LUBM TBox with no facts.
func emptyAnswerer(t *testing.T) *Answerer {
	t.Helper()
	db := engine.NewDB(engine.LayoutSimple)
	db.Finalize()
	return New(lubm.TBox(), db, engine.ProfilePostgres())
}

func sorted(tuples [][]string) []string {
	out := make([]string, len(tuples))
	for i, tu := range tuples {
		out[i] = strings.Join(tu, "\x00")
	}
	sort.Strings(out)
	return out
}

// sweepQueries keeps the differential sweep (and its -race run)
// tractable for EDL's exhaustive enumeration: the chain, the 3-atom
// head-of query, the 2-atom widest-union Q11, and the 4-atom Q12.
func sweepQueries() []query.CQ {
	qs := lubm.Queries()
	return []query.CQ{qs[1], qs[3], qs[10], qs[11]}
}

// TestBackendsAgreeOnLUBM: every strategy must return the same certain
// answers through the native streaming backend, through the SQL-text
// backend, and through the shard backend at several fan-outs (including
// 1 — the degenerate partitioning — and 7, which leaves some shards
// empty on small data) — all lowerings of one logical plan. A separate
// Answerer per variant keeps the answer cache from conflating shard
// counts (the cache key carries the backend name, not its fan-out).
func TestBackendsAgreeOnLUBM(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *Answerer{
		"lubm1": lubmAnswerer,
		"empty": emptyAnswerer,
	} {
		native := build(t)
		variants := map[string]*Answerer{
			"sql": build(t), "shard1": build(t), "shard2": build(t), "shard7": build(t),
		}
		variants["sql"].Backend = sqlexec.NewBackend(variants["sql"].DB, variants["sql"].Profile)
		for label, shards := range map[string]int{"shard1": 1, "shard2": 2, "shard7": 7} {
			a := variants[label]
			b, err := NewBackendByName("shard", a.DB, a.Profile, shards)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, label, err)
			}
			a.Backend = b
		}
		for _, q := range sweepQueries() {
			for _, s := range Strategies() {
				rn, err := native.Answer(q, s)
				if err != nil {
					t.Fatalf("%s/%s/%s native: %v", name, q.Name, s, err)
				}
				if name == "empty" && len(rn.Tuples) != 0 {
					t.Errorf("%s/%s: %d answers from an empty ABox", q.Name, s, len(rn.Tuples))
				}
				for label, a := range variants {
					rv, err := a.Answer(q, s)
					if err != nil {
						t.Fatalf("%s/%s/%s %s: %v", name, q.Name, s, label, err)
					}
					if !reflect.DeepEqual(sorted(rn.Tuples), sorted(rv.Tuples)) {
						t.Errorf("%s/%s/%s: backends disagree: native %d rows, %s %d rows",
							name, q.Name, s, len(rn.Tuples), label, len(rv.Tuples))
					}
				}
			}
		}
	}
}

// TestSearchCostMatchesExecutedEstimate: the cost the cover search
// assigned to the winning cover is exactly the backend's estimate of
// the plan that then executes — search and execution score the same IR
// with the same estimator, so nothing is lost in translation.
func TestSearchCostMatchesExecutedEstimate(t *testing.T) {
	a := lubmAnswerer(t)
	for _, q := range sweepQueries() {
		// gdl-rdbms searches with the engine's own estimator; EstCost
		// on the result is that same estimator applied to res.Plan.
		res, err := a.Answer(q, StrategyGDLRDBMS)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Search == nil {
			t.Fatalf("%s: no search result", q.Name)
		}
		if res.Search.Cost != res.EstCost {
			t.Errorf("%s/gdl-rdbms: search cost %.4f != executed estimate %.4f",
				q.Name, res.Search.Cost, res.EstCost)
		}

		// gdl-ext searches with the external model ε: its winning cost
		// must equal ε applied to the executed plan.
		res, err = a.Answer(q, StrategyGDLExt)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if got := cost.NewModel(a.DB).Estimate(res.Plan).Cost; res.Search.Cost != got {
			t.Errorf("%s/gdl-ext: search cost %.4f != ε(plan) %.4f",
				q.Name, res.Search.Cost, got)
		}
	}
}

// TestExplainEveryStrategy: each strategy's Result carries an EXPLAIN
// that survives a JSON round trip with estimated figures and the actual
// root row count of the run.
func TestExplainEveryStrategy(t *testing.T) {
	a := lubmAnswerer(t)
	q := lubm.Queries()[3]
	for _, s := range Strategies() {
		res, err := a.Answer(q, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		ex := res.Explain
		if ex == nil || ex.Root == nil {
			t.Fatalf("%s: no explain", s)
		}
		if ex.Backend != "native" {
			t.Errorf("%s: backend = %q", s, ex.Backend)
		}
		if ex.Root.ActualRows != int64(len(res.Tuples)) {
			t.Errorf("%s: root actual %d, want %d answers", s, ex.Root.ActualRows, len(res.Tuples))
		}
		if ex.Root.EstRows < 0 || ex.EstCost <= 0 {
			t.Errorf("%s: estimates missing (rows %.1f, cost %.1f)", s, ex.Root.EstRows, ex.EstCost)
		}
		blob, err := json.Marshal(ex)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		var back plan.Explain
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !reflect.DeepEqual(&back, ex) {
			t.Errorf("%s: explain changed through JSON", s)
		}
	}
}

// TestQuotedConstantOnSQLBackend: a constant holding a quote ships as
// an escaped literal, so the sql backend answers what the native one
// does, and Result.SQLSize counts the escaped statement it shipped —
// also where the plan was cached for another constant of the template,
// whose literal has another length.
func TestQuotedConstantOnSQLBackend(t *testing.T) {
	db := engine.NewDB(engine.LayoutSimple)
	db.AddRoleFact("worksFor", "ann", "O'Brien Lab")
	db.AddRoleFact("worksFor", "bob", "Brien Lab")
	db.AddRoleFact("worksFor", "ann", "it's")
	db.Finalize()
	for _, s := range []Strategy{StrategyUCQ, StrategyUSCQ, StrategyGDLExt} {
		native := New(lubm.TBox(), db, engine.ProfilePostgres())
		a := New(lubm.TBox(), db, engine.ProfilePostgres())
		for _, tc := range []struct {
			q    string
			want []string
		}{
			{`q(x) <- worksFor(x, "O'Brien Lab")`, []string{"ann"}},
			{`q(x) <- worksFor(x, 'Brien Lab')`, []string{"bob"}},
			{`q(x) <- worksFor(x, "it's")`, []string{"ann"}},
			{`q(x) <- worksFor(x, "O'Brien Lab"), worksFor(x, "it's")`, []string{"ann"}},
			{`q(x) <- worksFor(x, 'Brien Lab'), worksFor(x, "it's")`, nil},
			{`q(x) <- worksFor(x, "it's"), worksFor(x, "it's")`, []string{"ann"}},
		} {
			q := query.MustParseCQ(tc.q)
			nres, err := native.Answer(q, s)
			if err != nil {
				t.Fatalf("native/%s: %v", s, err)
			}
			res, err := a.AnswerWith(q, s, sqlexec.NewBackend(db, a.Profile))
			if err != nil {
				t.Fatalf("sql/%s: %v", s, err)
			}
			if !slices.Equal(sorted(nres.Tuples), tc.want) || !slices.Equal(sorted(res.Tuples), tc.want) {
				t.Errorf("%s %s: native %v, sql %v, want %v", tc.q, s, nres.Tuples, res.Tuples, tc.want)
			}
			if res.SQLSize != len(res.Explain.SQL) || nres.SQLSize != res.SQLSize {
				t.Errorf("%s %s: SQLSize %d (native %d), shipped statement is %d bytes", tc.q, s, res.SQLSize, nres.SQLSize, len(res.Explain.SQL))
			}
		}
	}
}

// TestSQLBackendExplainCarriesStatement: the SQL backend's EXPLAIN
// reports the statement it shipped.
func TestSQLBackendExplainCarriesStatement(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	a.Backend = sqlexec.NewBackend(a.DB, a.Profile)
	res, err := a.Answer(query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)"), StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == nil || res.Explain.Backend != "sql" {
		t.Fatalf("explain = %+v", res.Explain)
	}
	if !strings.Contains(res.Explain.SQL, "SELECT") {
		t.Errorf("explain carries no SQL: %q", res.Explain.SQL)
	}
	if res.Explain.Root.ActualRows != int64(len(res.Tuples)) {
		t.Errorf("root actual %d, want %d", res.Explain.Root.ActualRows, len(res.Tuples))
	}
}

// TestBooleanCQAgreesAcrossBackends: a boolean CQ answers one empty
// tuple when true and nothing when false, under every strategy, on the
// native and sql backends alike and as naive evaluation of its
// reformulation does; answering never grows the dictionary.
func TestBooleanCQAgreesAcrossBackends(t *testing.T) {
	tb := lubm.TBox()
	ab := dllite.MustParseABox("takesCourse(Ann, Course0)")
	boolean := func(text string) query.CQ {
		q := query.MustParseCQ(text)
		q.Head = nil
		return q
	}
	for _, q := range []query.CQ{
		boolean("q(x) <- Student(x), takesCourse(x, y)"),
		boolean("q(x) <- Student(x), teacherOf(x, y)"),
	} {
		want := certain(t, tb, q, ab)
		for _, s := range Strategies() {
			for _, backend := range []string{"native", "sql"} {
				db := engine.NewDB(engine.LayoutSimple)
				db.LoadABox(ab)
				a := New(tb, db, engine.ProfilePostgres())
				if backend == "sql" {
					a.Backend = sqlexec.NewBackend(db, a.Profile)
				}
				size := db.Dict.Size()
				res, err := a.Answer(q, s)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", q, s, backend, err)
				}
				if got := sorted(res.Tuples); !slices.Equal(got, want) {
					t.Errorf("%s/%s/%s: answers %q, naive %q", q, s, backend, got, want)
				}
				if got := db.Dict.Size(); got != size {
					t.Errorf("%s/%s/%s: dictionary grew from %d to %d entries", q, s, backend, size, got)
				}
			}
		}
	}
}

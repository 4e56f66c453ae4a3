// Differential tests for cover execution: the streaming hash-join
// pipeline over a cover's JUCQ or JUSCQ and the single-fragment UCQ
// expansion must compute identical certain answers on the LUBM∃
// workload (Theorem 1 — covers change cost, never semantics). Edge-case
// fragment joins are checked against the reference evaluator
// (internal/naive) over the same generated ABox.
package repro

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/lubm"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
)

// runPlan compiles n on the native backend and drains one run with
// the given worker budget.
func runPlan(t *testing.T, env *exp.Env, n *plan.Node, workers int) *engine.Relation {
	t.Helper()
	c, err := engine.NewBackend(env.DB, env.Profile).CompilePlan(n)
	if err != nil {
		t.Fatal(err)
	}
	op, _ := c.Tree(workers)
	return engine.Drain(op)
}

// tupleSet canonicalizes a relation for set comparison.
func tupleSet(rel *engine.Relation, db *engine.DB) map[string]bool {
	out := make(map[string]bool, len(rel.Rows))
	for _, row := range rel.Decode(db.Dict) {
		out[strings.Join(row, "\x00")] = true
	}
	return out
}

func diffKeys(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, strings.ReplaceAll(k, "\x00", ","))
		}
	}
	sort.Strings(out)
	return out
}

func requireSameAnswers(t *testing.T, label string, got, want map[string]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d answers, want %d (missing %v, extra %v)",
			label, len(got), len(want), diffKeys(want, got), diffKeys(got, want))
		return
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing answer %s", label, strings.ReplaceAll(k, "\x00", ","))
			return
		}
	}
}

// TestCoverExecutionDifferentialLUBM: for every workload query and for
// both the root cover and the GDL-chosen cover, streaming JUCQ/JUSCQ
// execution (sequential and parallel) agrees with the single-fragment
// UCQ expansion.
func TestCoverExecutionDifferentialLUBM(t *testing.T) {
	env := exp.BuildEnv(2, 1, engine.LayoutSimple, engine.ProfilePostgres())
	ref := reformulate.New(env.TBox)
	for _, q := range lubm.Queries() {
		u := ref.MustReformulate(q)
		truth := tupleSet(runPlan(t, env, plan.FromUCQ(u), 1), env.DB)

		covers := map[string]cover.Cover{"croot": cover.RootCover(q, env.TBox)}
		est := &search.ExtEstimator{Model: cost.NewModel(env.DB)}
		if sr := search.GDL(q, env.TBox, ref, est, search.Options{}); sr.Err == nil {
			covers["gdl"] = sr.Cover
		} else {
			t.Fatalf("%s: GDL failed: %v", q.Name, sr.Err)
		}
		for cname, c := range covers {
			j, err := c.ReformulateJUCQ(ref)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, cname, err)
			}
			for _, workers := range []int{1, 4} {
				got := tupleSet(runPlan(t, env, plan.FromJUCQ(j), workers), env.DB)
				requireSameAnswers(t, q.Name+"/"+cname+"/jucq-streaming", got, truth)
			}

			js, err := c.ReformulateJUSCQ(ref)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, cname, err)
			}
			for _, workers := range []int{1, 4} {
				got := tupleSet(runPlan(t, env, plan.FromJUSCQ(js), workers), env.DB)
				requireSameAnswers(t, q.Name+"/"+cname+"/juscq-streaming", got, truth)
			}
		}
	}
}

// TestCoverExecutionEdgeCasesLUBM: fragment joins with an empty
// fragment (absent predicate) and with no shared variable give the
// reference evaluator's answers on the streaming path over the LUBM
// database.
func TestCoverExecutionEdgeCasesLUBM(t *testing.T) {
	env := exp.BuildEnv(1, 1, engine.LayoutSimple, engine.ProfilePostgres())
	ab := lubm.GenerateABox(lubm.Config{Universities: 1, Seed: 1})
	frag := func(text string) query.UCQ {
		return query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ(text)}}
	}
	cases := []struct {
		name  string
		j     query.JUCQ
		empty bool
	}{
		{
			name: "empty-fragment",
			j: query.JUCQ{Name: "q", Head: []query.Term{query.Var("x")},
				Subs: []query.UCQ{
					frag("f1(x) <- Professor(x)"),
					frag("f2(x) <- NoSuchConcept(x)"),
				}},
			empty: true,
		},
		{
			name: "no-shared-variable",
			j: query.JUCQ{Name: "q", Head: []query.Term{query.Var("x"), query.Var("y")},
				Subs: []query.UCQ{
					frag("f1(x) <- Department(x)"),
					frag("f2(y) <- ResearchGroup(y)"),
				}},
		},
	}
	for _, tc := range cases {
		want := map[string]bool{}
		for k := range naive.EvalJUCQ(tc.j, ab).Tuples {
			want[k] = true
		}
		if tc.empty != (len(want) == 0) {
			t.Fatalf("%s: naive returned %d answers, empty=%v", tc.name, len(want), tc.empty)
		}
		if tc.name == "no-shared-variable" && len(want) == 0 {
			t.Fatalf("%s: expected a non-empty cross product", tc.name)
		}
		for _, workers := range []int{1, 4} {
			got := tupleSet(runPlan(t, env, plan.FromJUCQ(tc.j), workers), env.DB)
			requireSameAnswers(t, tc.name, got, want)
		}
	}
}

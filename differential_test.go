// Differential tests for cover execution: the streaming hash-join
// pipeline, the materialize-every-fragment fold, and the
// single-fragment UCQ expansion must compute identical certain answers
// on the LUBM∃ workload (Theorem 1 — covers change cost, never
// semantics).
package repro

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
)

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
// execution (sequential and parallel) and the materialized fold all
// agree with the single-fragment UCQ expansion.
func TestCoverExecutionDifferentialLUBM(t *testing.T) {
	env := exp.BuildEnv(2, 1, engine.LayoutSimple, engine.ProfilePostgres())
	ref := reformulate.New(env.TBox)
	for _, q := range lubm.Queries() {
		u := ref.MustReformulate(q)
		truth := tupleSet(engine.ExecUCQ(engine.PlanUCQ(u, env.DB, env.Profile), env.DB), env.DB)

		covers := map[string]cover.Cover{"croot": cover.RootCover(q, env.TBox)}
		est := &search.ExtEstimator{Model: env.A.Model}
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
			plan := engine.PlanJUCQ(j, env.DB, env.Profile)
			mat := tupleSet(engine.ExecJUCQMaterialized(plan, env.DB), env.DB)
			requireSameAnswers(t, q.Name+"/"+cname+"/jucq-materialized", mat, truth)
			for _, workers := range []int{1, 4} {
				got := tupleSet(engine.Drain(engine.CompileJUCQ(plan, env.DB, nil, workers)), env.DB)
				requireSameAnswers(t, q.Name+"/"+cname+"/jucq-streaming", got, truth)
			}

			js, err := c.ReformulateJUSCQ(ref)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, cname, err)
			}
			splan := engine.PlanJUSCQ(js, env.DB, env.Profile)
			smat := tupleSet(engine.ExecJUSCQMaterialized(splan, env.DB), env.DB)
			requireSameAnswers(t, q.Name+"/"+cname+"/juscq-materialized", smat, truth)
			for _, workers := range []int{1, 4} {
				got := tupleSet(engine.Drain(engine.CompileJUSCQ(splan, env.DB, nil, workers)), env.DB)
				requireSameAnswers(t, q.Name+"/"+cname+"/juscq-streaming", got, truth)
			}
		}
	}
}

// TestCoverExecutionEdgeCasesLUBM: fragment joins with an empty
// fragment (absent predicate) and with no shared variable behave
// identically on the streaming and materialized paths over the LUBM
// database.
func TestCoverExecutionEdgeCasesLUBM(t *testing.T) {
	env := exp.BuildEnv(1, 1, engine.LayoutSimple, engine.ProfilePostgres())
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
		plan := engine.PlanJUCQ(tc.j, env.DB, env.Profile)
		want := tupleSet(engine.ExecJUCQMaterialized(plan, env.DB), env.DB)
		if tc.empty != (len(want) == 0) {
			t.Fatalf("%s: materialized returned %d answers, empty=%v", tc.name, len(want), tc.empty)
		}
		if tc.name == "no-shared-variable" && len(want) == 0 {
			t.Fatalf("%s: expected a non-empty cross product", tc.name)
		}
		for _, workers := range []int{1, 4} {
			got := tupleSet(engine.Drain(engine.CompileJUCQ(plan, env.DB, nil, workers)), env.DB)
			requireSameAnswers(t, tc.name, got, want)
		}
	}
}

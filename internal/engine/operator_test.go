package engine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dllite"
	"repro/internal/plan"
	"repro/internal/query"
)

func TestBatchBasics(t *testing.T) {
	b := NewBatch(2)
	if b.Width() != 2 || b.Len() != 0 || b.Full() {
		t.Fatalf("fresh batch: width=%d len=%d full=%v", b.Width(), b.Len(), b.Full())
	}
	r := b.Append([]int64{1, 2})
	r[1] = 7 // in-place column write after append
	b.Append([]int64{3, 4})
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
	if got := b.Row(0); got[0] != 1 || got[1] != 7 {
		t.Fatalf("row0 = %v", got)
	}
	if got := b.Row(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("row1 = %v", got)
	}
	var c Batch
	c.CopyFrom(b)
	b.Reset()
	if b.Len() != 0 || c.Len() != 2 || c.Row(1)[1] != 4 {
		t.Fatal("Reset/CopyFrom broken")
	}
	// Width-zero batches still count rows (boolean pipelines).
	z := NewBatch(0)
	z.Append(nil)
	z.Append(nil)
	if z.Len() != 2 {
		t.Fatalf("width-0 len = %d", z.Len())
	}
}

func TestRowSetExactness(t *testing.T) {
	s := newRowSet(2)
	if !s.insert([]int64{1, 2}) || s.insert([]int64{1, 2}) {
		t.Fatal("basic dedup broken")
	}
	if !s.insert([]int64{2, 1}) {
		t.Fatal("order must matter")
	}
	// Width 0: all rows identical.
	z := newRowSet(0)
	if !z.insert(nil) || z.insert(nil) {
		t.Fatal("width-0 dedup broken")
	}
}

// TestPropPipelineMatchesMaterializedCQ: the streaming pipeline and the
// materializing reference executor agree on random CQs, data, layouts,
// and profiles — duplicates included.
func TestPropPipelineMatchesMaterializedCQ(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		q := randQuery(r)
		for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
			db := NewDB(layout)
			db.LoadABox(ab)
			stream := Drain(CompileCQ(PlanCQ(q, db, ProfilePostgres()), db, nil))
			mat := ExecCQMaterialized(q, db, ProfilePostgres())
			if len(stream.Rows) != len(mat.Rows) {
				t.Logf("seed=%d layout=%v: %d vs %d rows (duplicates must match too)",
					seed, layout, len(stream.Rows), len(mat.Rows))
				return false
			}
			if !sameSets(relToSet(stream, db.Dict), relToSet(mat, db.Dict)) {
				t.Logf("seed=%d layout=%v: row sets differ", seed, layout)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropPipelineMatchesMaterializedUCQ: same for whole UCQs (with
// DISTINCT), streaming sequential and parallel.
func TestPropPipelineMatchesMaterializedUCQ(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		var u query.UCQ
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			u.Disjuncts = append(u.Disjuncts, randQuery(r))
		}
		for i := range u.Disjuncts {
			u.Disjuncts[i].Head = u.Disjuncts[i].Head[:1]
		}
		db := NewDB(LayoutSimple)
		db.LoadABox(ab)
		mat := ExecUCQMaterialized(u, db, ProfilePostgres())
		seq := drainPlan(t, db, ProfilePostgres(), plan.FromUCQ(u), 1)
		par := drainPlan(t, db, ProfilePostgres(), plan.FromUCQ(u), 4)
		return sameSets(relToSet(seq, db.Dict), relToSet(mat, db.Dict)) &&
			sameSets(relToSet(par, db.Dict), relToSet(mat, db.Dict))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPipelineCrossesBatchBoundaries joins relations large enough that
// every operator emits many batches.
func TestPipelineCrossesBatchBoundaries(t *testing.T) {
	var sb strings.Builder
	n := DefaultBatchSize*3 + 17
	for i := 0; i < n; i++ {
		sb.WriteString("R(s" + itoa(i) + ", h" + itoa(i%5) + ")\n")
	}
	for i := 0; i < 5; i++ {
		sb.WriteString("S(h" + itoa(i) + ", t" + itoa(i) + ")\n")
	}
	for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
		db := loadDB(t, layout, sb.String())
		q := query.MustParseCQ("q(x, z) <- R(x, y), S(y, z)")
		stream := Drain(CompileCQ(PlanCQ(q, db, ProfilePostgres()), db, nil))
		mat := ExecCQMaterialized(q, db, ProfilePostgres())
		if len(stream.Rows) != n || len(mat.Rows) != n {
			t.Fatalf("%v: stream=%d mat=%d want %d", layout, len(stream.Rows), len(mat.Rows), n)
		}
		if !sameSets(relToSet(stream, db.Dict), relToSet(mat, db.Dict)) {
			t.Fatalf("%v: executors disagree", layout)
		}
	}
}

func TestPipelineStatsAndExplain(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), supervisedBy(x, y), Researcher(y)")
	p := PlanCQ(q, db, ProfilePostgres())
	op := CompileCQ(p, db, nil)
	rel := Drain(op)
	if len(rel.Rows) != 2 { // Damian × two supervisors
		t.Fatalf("rows = %d", len(rel.Rows))
	}
	stats := CollectStats(op)
	if len(stats) < 3 {
		t.Fatalf("stats = %v", stats)
	}
	if stats[0].Rows != 2 || stats[0].Batches == 0 {
		t.Errorf("root stats = %+v", stats[0])
	}
	expl := ExplainPipeline(op)
	for _, want := range []string{"project", "rows="} {
		if !strings.Contains(expl, want) {
			t.Errorf("explain missing %q:\n%s", want, expl)
		}
	}
}

// TestFeedbackAdaptsEstimates: executing with Profile.Feedback enabled
// replaces the statistics-derived fanout with the observed one on the
// next planning round.
func TestFeedbackAdaptsEstimates(t *testing.T) {
	// Skewed role: statistics assume uniform fanout card/distinct(S),
	// but the member of A ("hub") holds almost every edge.
	var sb strings.Builder
	for i := 0; i < 99; i++ {
		sb.WriteString("R(hub, o" + itoa(i) + ")\n")
	}
	sb.WriteString("R(solo, o0)\nA(hub)\n")
	db := loadDB(t, LayoutSimple, sb.String())
	prof := ProfilePostgres()
	prof.Feedback = NewCardFeedback()
	q := query.MustParseCQ("q(y) <- A(x), R(x, y)")

	before := PlanCQ(q, db, prof)
	ans := EvaluateCQ(q, db, prof)
	if len(ans.Tuples) != 99 {
		t.Fatalf("answers = %d", len(ans.Tuples))
	}
	if _, ok := prof.Feedback.Fanout("R", AccessRoleFwd); !ok {
		t.Fatal("execution did not record feedback for the fwd probe")
	}
	after := PlanCQ(q, db, prof)
	errBefore := before.EstCard - 99
	errAfter := after.EstCard - 99
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	if abs(errAfter) >= abs(errBefore) {
		t.Errorf("feedback did not improve the estimate: before=%.1f after=%.1f (actual 99)",
			before.EstCard, after.EstCard)
	}
}

// Regression for the absent-predicate hazard: every layout-dispatched
// access path over a predicate with no stored table must return empty,
// never panic, on both layouts.
func TestAbsentPredicateAccessPaths(t *testing.T) {
	for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
		db := loadDB(t, layout, sampleABox)
		if got := db.ConceptMembers("NoConcept"); len(got) != 0 {
			t.Errorf("%v: ConceptMembers = %v", layout, got)
		}
		if db.ConceptContains("NoConcept", 0) {
			t.Errorf("%v: ConceptContains true", layout)
		}
		if got := db.RoleObjects("noRole", 0); len(got) != 0 {
			t.Errorf("%v: RoleObjects = %v", layout, got)
		}
		if got := db.RoleSubjects("noRole", 0); len(got) != 0 {
			t.Errorf("%v: RoleSubjects = %v", layout, got)
		}
		if db.RoleContains("noRole", 0, 0) {
			t.Errorf("%v: RoleContains true", layout)
		}
		db.RolePairs("noRole", func(s, o int64) { t.Errorf("%v: RolePairs visited (%d,%d)", layout, s, o) })

		// End to end: queries mixing absent predicates with bound and
		// unbound arguments stay empty through every access path.
		for _, qs := range []string{
			"q(x) <- NoConcept(x)",
			"q(x) <- PhDStudent(x), NoConcept(x)",
			"q(x, y) <- noRole(x, y)",
			"q(x) <- PhDStudent(x), noRole(x, y)",
			"q(x) <- PhDStudent(x), noRole(y, x)",
			"q(x) <- PhDStudent(x), noRole(x, x)",
		} {
			q := query.MustParseCQ(qs)
			if ans := EvaluateCQ(q, db, ProfilePostgres()); len(ans.Tuples) != 0 {
				t.Errorf("%v: %s = %v, want empty", layout, qs, ans.Tuples)
			}
		}
	}
}

// TestRoleFinalize: DB.Finalize finalizes role tables too — pairs and
// both adjacency indexes come out sorted, and index queries work after
// load on both layouts.
func TestRoleFinalize(t *testing.T) {
	ab := "R(c, z)\nR(a, y)\nR(a, x)\nR(b, w)\n"
	for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
		db := loadDB(t, layout, ab)
		if layout == LayoutSimple {
			tbl := db.Role("R")
			for i := 1; i < len(tbl.Pairs); i++ {
				p, q := tbl.Pairs[i-1], tbl.Pairs[i]
				if p[0] > q[0] || (p[0] == q[0] && p[1] > q[1]) {
					t.Fatalf("pairs unsorted after Finalize: %v", tbl.Pairs)
				}
			}
			objs := db.RoleObjects("R", db.Dict.toID["a"])
			for i := 1; i < len(objs); i++ {
				if objs[i-1] > objs[i] {
					t.Fatalf("fwd index unsorted: %v", objs)
				}
			}
		}
		// Post-load index queries (fwd and rev) on both layouts.
		q := query.MustParseCQ("q(y) <- R('a', y)")
		if ans := EvaluateCQ(q, db, ProfileDB2()); len(ans.Tuples) != 2 {
			t.Errorf("%v: fwd index after load = %v", layout, ans.Tuples)
		}
		q = query.MustParseCQ("q(x) <- R(x, 'w')")
		if ans := EvaluateCQ(q, db, ProfileDB2()); len(ans.Tuples) != 1 || ans.Tuples[0][0] != "b" {
			t.Errorf("%v: rev index after load = %v", layout, ans.Tuples)
		}
	}
}

// TestPropPipelineSCQMatchesMaterializedExpansion: the SCQ pipeline
// (block-union joins) equals the materialized evaluation of the
// expanded UCQ.
func TestPropPipelineSCQMatchesMaterializedExpansion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		s := query.SCQ{
			Name: "q",
			Head: []query.Term{query.Var("x")},
			Blocks: [][]query.Atom{
				{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("Researcher", query.Var("x"))},
				{query.RoleAtom("R", query.Var("x"), query.Var("y")),
					query.RoleAtom("S", query.Var("x"), query.Var("y"))},
			},
		}
		db := NewDB(LayoutSimple)
		db.LoadABox(ab)
		got := Drain(CompileSCQ(PlanSCQ(s, db, ProfilePostgres()), db, nil))
		got.Distinct()
		want := ExecUCQMaterialized(s.Expand(), db, ProfilePostgres())
		return sameSets(relToSet(got, db.Dict), relToSet(want, db.Dict))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPipelineReuse: a compiled operator tree re-executes from scratch
// on every Open/Drain cycle (the amortized-compilation mode the
// benchmarks measure).
func TestPipelineReuse(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	u := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- PhDStudent(x)"),
		query.MustParseCQ("q(x) <- Researcher(x)"),
		query.MustParseCQ("q(x) <- supervisedBy(x, y)"),
	}}
	c := compilePlan(t, db, ProfilePostgres(), plan.FromUCQ(u))
	op, _ := c.Tree(1)
	first := Drain(op)
	for i := 0; i < 3; i++ {
		again := Drain(op)
		if !sameSets(relToSet(again, db.Dict), relToSet(first, db.Dict)) {
			t.Fatalf("re-execution %d differs: %v vs %v", i, again, first)
		}
	}
	par, _ := c.Tree(4)
	for i := 0; i < 3; i++ {
		again := Drain(par)
		if !sameSets(relToSet(again, db.Dict), relToSet(first, db.Dict)) {
			t.Fatalf("parallel re-execution %d differs", i)
		}
	}
}

// TestReuseResetsStatsAndFeedback: re-executing a compiled tree resets
// the per-operator counters each Open, so ExplainPipeline reports one
// execution and cardinality feedback does not inflate across reuses.
func TestReuseResetsStatsAndFeedback(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	prof.Feedback = NewCardFeedback()
	u := query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ("q(x, y) <- supervisedBy(x, y)")}}
	op, _ := compilePlan(t, db, prof, plan.FromUCQ(u)).Tree(1)
	Drain(op)
	first := CollectStats(op)
	r1, ok := prof.Feedback.Fanout("supervisedBy", AccessRoleScan)
	if !ok {
		t.Fatal("no feedback after first execution")
	}
	Drain(op)
	second := CollectStats(op)
	for i := range first {
		if first[i].Rows != second[i].Rows || first[i].Batches != second[i].Batches {
			t.Fatalf("stats drifted across reuse: %+v vs %+v", first[i], second[i])
		}
	}
	r2, _ := prof.Feedback.Fanout("supervisedBy", AccessRoleScan)
	if r1 != r2 {
		t.Errorf("feedback inflated across reuse: %.2f -> %.2f", r1, r2)
	}

	// Same invariant through the parallel union operator.
	multi := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- PhDStudent(x)"),
		query.MustParseCQ("q(x) <- Researcher(x)"),
	}}
	pop, _ := compilePlan(t, db, prof, plan.FromUCQ(multi)).Tree(4)
	Drain(pop)
	pf := CollectStats(pop)
	Drain(pop)
	ps := CollectStats(pop)
	for i := range pf {
		if pf[i].Rows != ps[i].Rows {
			t.Fatalf("parallel stats drifted across reuse: %+v vs %+v", pf[i], ps[i])
		}
	}
}

// TestParallelCloseBeforeOpen: Close on a never-opened parallel union
// is a no-op like on every other operator.
func TestParallelCloseBeforeOpen(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	u := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- PhDStudent(x)"),
		query.MustParseCQ("q(x) <- Researcher(x)"),
	}}
	arms := []Operator{
		CompileCQ(PlanCQ(u.Disjuncts[0], db, ProfilePostgres()), db, nil),
		CompileCQ(PlanCQ(u.Disjuncts[1], db, ProfilePostgres()), db, nil),
	}
	op := NewUnionParallel(arms[0].Schema(), arms, 4)
	op.Close() // must not panic or block
}

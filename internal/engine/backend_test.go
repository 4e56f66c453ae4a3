package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dllite"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/query"
)

// backendUCQ is a small multi-arm reformulation over the sample data.
func backendUCQ(t *testing.T) query.UCQ {
	t.Helper()
	return query.UCQ{Name: "u", Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)"),
		query.MustParseCQ("q(x) <- supervisedBy(x, y), Researcher(y)"),
	}}
}

// compilePlan compiles n on the native backend, failing the test on
// error.
func compilePlan(t *testing.T, db *DB, prof *Profile, n *plan.Node) *Compiled {
	t.Helper()
	c, err := NewBackend(db, prof).CompilePlan(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drainPlan compiles n on the native backend and drains one run with
// the given worker budget.
func drainPlan(t *testing.T, db *DB, prof *Profile, n *plan.Node, workers int) *Relation {
	t.Helper()
	op, _ := compilePlan(t, db, prof, n).Tree(workers)
	return Drain(op)
}

// naiveTuples returns the reference evaluator's answers in the order a
// run returns its tuples.
func naiveTuples(rel *naive.Relation) [][]string {
	out := make([][]string, 0, rel.Size())
	for _, tu := range rel.Sorted() {
		out = append(out, tu)
	}
	return out
}

// TestBackendMatchesPlannedExec: compiling a UCQ through the plan IR
// returns the reference evaluator's tuples, and the estimate of the
// profile's union arithmetic over the planned arms.
func TestBackendMatchesPlannedExec(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	u := backendUCQ(t)

	exec, err := b.Compile(plan.FromUCQ(u))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveTuples(naive.EvalUCQ(u, dllite.MustParseABox(sampleABox))); !reflect.DeepEqual(rr.Tuples, want) {
		t.Errorf("tuples = %v, want %v", rr.Tuples, want)
	}
	var cost, card float64
	for _, d := range u.Disjuncts {
		est := planBlocks(d.Head, cqBlocks(d), db, prof).est
		cost += est.Cost
		card += est.Card
	}
	if est := exec.Estimate(); est.Cost != cost+card*prof.CDedup || est.Card != card {
		t.Errorf("estimate = %+v, want cost %.1f card %.1f", est, cost+card*prof.CDedup, card)
	}
}

// TestBackendJUCQMatchesPlannedExec: the two-fragment cover shape runs
// through the hash join, matches the reference evaluator, and is costed
// as coverEstimate over its fragments' own estimates.
func TestBackendJUCQMatchesPlannedExec(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	j := query.JUCQ{Name: "j", Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{
		{Name: "f1", Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- PhDStudent(x)")}},
		{Name: "f2", Disjuncts: []query.CQ{
			query.MustParseCQ("f2(x) <- worksWith(y, x)"),
			query.MustParseCQ("f2(x) <- supervisedBy(x, y)"),
		}},
	}}
	exec, err := b.Compile(plan.FromJUCQ(j))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveTuples(naive.EvalJUCQ(j, dllite.MustParseABox(sampleABox))); !reflect.DeepEqual(rr.Tuples, want) {
		t.Errorf("tuples = %v, want %v", rr.Tuples, want)
	}
	frags := make([]plan.Estimate, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = b.Estimate(plan.FromUCQ(sub))
	}
	if est, want := exec.Estimate(), coverEstimate(frags, prof); est != want {
		t.Errorf("estimate = %+v, want %+v", est, want)
	}
}

// TestBackendExplainActuals: after a run, the explain tree carries the
// observed row counters — the root's actual equals the answer count,
// every access leaf is annotated, and estimates come from the plan —
// for a UCQ and for its factorized lowering, whose access leaves are
// SCQ blocks.
func TestBackendExplainActuals(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	u := backendUCQ(t)
	for name, n := range map[string]*plan.Node{
		"ucq":  plan.FromUCQ(u),
		"uscq": plan.FromUSCQ(query.FactorizeUCQ(u)),
	} {
		exec, err := b.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := exec.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		ex := rr.Explain
		if ex == nil || ex.Root == nil {
			t.Fatalf("%s: no explain", name)
		}
		if ex.Backend != "native" {
			t.Errorf("%s: backend = %s", name, ex.Backend)
		}
		if ex.Root.ActualRows != int64(len(rr.Tuples)) {
			t.Errorf("%s: root actual = %d, want %d", name, ex.Root.ActualRows, len(rr.Tuples))
		}
		if ex.Root.EstRows < 0 || ex.EstCost <= 0 {
			t.Errorf("%s: root estimate missing: est=%.1f cost=%.1f", name, ex.Root.EstRows, ex.EstCost)
		}
		var accesses, annotated int
		var walk func(*plan.ExplainNode)
		walk = func(e *plan.ExplainNode) {
			if e.Op == "access" {
				accesses++
				if e.ActualRows >= 0 {
					annotated++
				}
				if e.EstRows < 0 {
					t.Errorf("%s: access %q has no estimate", name, e.Detail)
				}
			}
			for _, c := range e.Children {
				walk(c)
			}
		}
		walk(ex.Root)
		if accesses == 0 || annotated != accesses {
			t.Errorf("%s: %d/%d access nodes annotated with actuals", name, annotated, accesses)
		}
	}
}

// TestBackendUSCQ: the factorized dialect compiles and matches the
// reference evaluation of its expansion.
func TestBackendUSCQ(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	prof := ProfilePostgres()
	b := NewBackend(db, prof)
	u := query.FactorizeUCQ(backendUCQ(t))
	exec, err := b.Compile(plan.FromUSCQ(u))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := exec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveTuples(naive.EvalUSCQ(u, dllite.MustParseABox(sampleABox))); !reflect.DeepEqual(rr.Tuples, want) {
		t.Errorf("tuples = %v, want %v", rr.Tuples, want)
	}
}

// TestBackendEstimateMalformed: a malformed tree estimates to +Inf and
// fails Compile with an error.
func TestBackendEstimateMalformed(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	b := NewBackend(db, ProfilePostgres())
	bad := &plan.Node{Op: plan.OpUnion}
	if _, err := b.Compile(bad); err == nil {
		t.Error("Compile accepted a malformed tree")
	}
	if est := b.Estimate(bad); !math.IsInf(est.Cost, 1) {
		t.Errorf("estimate of malformed tree = %+v, want +Inf cost", est)
	}
}

// TestEstimateSharedMatchesCompile: costing a cover fragment by fragment
// — with the fragments' figures recalled from a memo on later trees — is
// bit for bit the estimate Compile freezes for the same tree, for plain
// and factorized covers, rewritten or not, and for the mixed-dialect
// cover no lowering produces (each fragment compiles in its own
// dialect either way).
func TestEstimateSharedMatchesCompile(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	b := NewBackend(db, ProfilePostgres())
	x := query.Var("x")
	ucq := func(name string, cqs ...string) query.UCQ {
		u := query.UCQ{Name: name}
		for _, s := range cqs {
			u.Disjuncts = append(u.Disjuncts, query.MustParseCQ(s))
		}
		return u
	}
	f1 := ucq("f1", "f1(x) <- PhDStudent(x)", "f1(x) <- supervisedBy(x, y)")
	f2 := ucq("f2", "f2(x) <- worksWith(y, x)", "f2(x) <- supervisedBy(x, y), Researcher(y)")
	f3 := ucq("f3", "f3(x) <- Researcher(x)")
	t1, t2, t3 := plan.Rewrite(plan.FromUCQ(f1)), plan.Rewrite(plan.FromUCQ(f2)), plan.Rewrite(plan.FromUCQ(f3))
	s1, s2 := plan.FromUSCQ(query.FactorizeUCQ(f1)), plan.FromUSCQ(query.FactorizeUCQ(f2))

	trees := map[string]*plan.Node{
		"jucq":           plan.FromJUCQ(query.JUCQ{Name: "j", Head: []query.Term{x}, Subs: []query.UCQ{f1, f2}}),
		"shared 1+2":     plan.Cover("j", []query.Term{x}, []*plan.Node{t1, t2}),
		"shared 1+3":     plan.Cover("j", []query.Term{x}, []*plan.Node{t1, t3}),
		"shared 3+2+1":   plan.Cover("j", []query.Term{x}, []*plan.Node{t3, t2, t1}),
		"juscq":          plan.Cover("j", []query.Term{x}, []*plan.Node{s1, s2}),
		"mixed dialects": plan.Cover("j", []query.Term{x}, []*plan.Node{t1, s2}),
		"single":         t1,
	}
	var memo EstimateMemo
	for round := 0; round < 2; round++ { // second round: every fragment recalled
		for name, n := range trees {
			exec, err := b.Compile(n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := b.EstimateShared(n, &memo), exec.Estimate(); got != want {
				t.Errorf("%s (round %d): shared estimate %+v, compiled %+v", name, round, got, want)
			}
			if got, want := b.Estimate(n), exec.Estimate(); got != want {
				t.Errorf("%s: estimate %+v, compiled %+v", name, got, want)
			}
		}
	}
	if len(memo.frags) != 7 { // t1–t3, s1, s2, and the two the "jucq" lowering built for itself
		t.Errorf("memo holds %d fragment estimates, want the 7 distinct fragment subtrees", len(memo.frags))
	}
	hidden := plan.Rewrite(plan.FromUCQ(ucq("f4", "f4(z) <- worksWith(x, z)"))) // x is body-only: an invisible join key
	if est := b.EstimateShared(plan.Cover("j", []query.Term{x}, []*plan.Node{t1, hidden}), &memo); !math.IsInf(est.Cost, 1) {
		t.Errorf("cover hiding a join key estimates to %+v, want +Inf cost", est)
	}
}

// extDB is the database ε's formula tests run on: 300 facts of R over
// 60 subjects and 17 objects, and 40 members of A.
func extDB(t *testing.T) *DB {
	t.Helper()
	var sb strings.Builder
	for i := range 300 {
		fmt.Fprintf(&sb, "R(s%d, o%d)\n", i%60, i%17)
	}
	for i := range 40 {
		fmt.Fprintf(&sb, "A(s%d)\n", i)
	}
	return loadDB(t, LayoutSimple, sb.String())
}

// TestSCQCheaperThanExpansion: under ε's profile, one factorized arm
// alone (no DISTINCT) costs no more than the whole expanded union.
func TestSCQCheaperThanExpansion(t *testing.T) {
	db := extDB(t)
	s := query.SCQ{
		Head: []query.Term{query.Var("x")},
		Blocks: [][]query.Atom{
			{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("B", query.Var("x"))},
			{query.RoleAtom("R", query.Var("x"), query.Var("y")),
				query.RoleAtom("S", query.Var("x"), query.Var("y"))},
		},
	}
	factored := planBlocks(s.Head, s.Blocks, db, ProfileExt()).est
	expanded := NewBackend(db, ProfileExt()).Estimate(plan.FromUCQ(s.Expand()))
	if factored.Cost > expanded.Cost {
		t.Errorf("factorized evaluation (%.1f) should not exceed expansion (%.1f)",
			factored.Cost, expanded.Cost)
	}
}

// TestEstimateSharedMatchesFormulas: under ε's profile, scoring a
// cover's plan tree fragment by fragment — recalling fragment figures
// from the memo on later trees — gives exactly the figures of the cover
// estimated whole, which are coverEstimate of its fragments' own
// estimates; a plain CQ arm costs, bit for bit, what the same arm costs
// as all-singleton factorized blocks.
func TestEstimateSharedMatchesFormulas(t *testing.T) {
	prof := ProfileExt()
	b := NewBackend(extDB(t), prof)
	x := query.Var("x")
	f1 := query.UCQ{Name: "f1", Disjuncts: []query.CQ{
		query.MustParseCQ("f1(x) <- A(x)"), query.MustParseCQ("f1(x) <- R(x, y)")}}
	f2 := query.UCQ{Name: "f2", Disjuncts: []query.CQ{query.MustParseCQ("f2(x) <- R(x, 'o3')")}}
	f3 := query.UCQ{Name: "f3", Disjuncts: []query.CQ{
		query.MustParseCQ("f3(x) <- R(x, y), R(z, y)"), query.MustParseCQ("f3(x) <- A(x), R(x, y)")}}
	tree := map[string]*plan.Node{}
	for _, u := range []query.UCQ{f1, f2, f3} {
		tree[u.Name] = plan.Rewrite(plan.FromUCQ(u))
	}
	var memo EstimateMemo
	for _, subs := range [][]query.UCQ{{f1, f2}, {f1, f3}, {f3, f2, f1}, {f2}} {
		j := query.JUCQ{Name: "j", Head: []query.Term{x}, Subs: subs}
		frags := make([]*plan.Node, len(subs))
		ests := make([]plan.Estimate, len(subs))
		for i, u := range subs {
			frags[i] = tree[u.Name]
			ests[i] = b.Estimate(plan.FromUCQ(u))
		}
		want := coverEstimate(ests, prof)
		if len(subs) == 1 {
			want = ests[0] // a single fragment is a plain UCQ plan
		}
		n := plan.Cover(j.Name, j.Head, frags)
		if got := b.EstimateShared(n, &memo); got != want {
			t.Errorf("%d fragments: shared estimate %+v, fragment join %+v", len(subs), got, want)
		}
		if got := b.Estimate(plan.FromJUCQ(j)); got != want {
			t.Errorf("%d fragments: estimate %+v, fragment join %+v", len(subs), got, want)
		}
	}
	if len(memo.frags) != 3 {
		t.Errorf("memo holds %d fragment estimates, want 3", len(memo.frags))
	}
	for _, u := range []query.UCQ{f1, f2, f3} {
		var blocks query.USCQ
		for _, d := range u.Disjuncts {
			s := query.SCQ{Name: d.Name, Head: d.Head}
			for _, a := range d.Atoms {
				s.Blocks = append(s.Blocks, []query.Atom{a})
			}
			blocks.Disjuncts = append(blocks.Disjuncts, s)
		}
		if got, want := b.Estimate(plan.FromUSCQ(blocks)), b.Estimate(plan.FromUCQ(u)); got != want {
			t.Errorf("%s: singleton-block estimate %+v, CQ estimate %+v", u.Name, got, want)
		}
	}
	js := query.JUSCQ{Name: "j", Head: []query.Term{x}, Subs: []query.USCQ{query.FactorizeUCQ(f1), query.FactorizeUCQ(f3)}}
	want := coverEstimate([]plan.Estimate{b.Estimate(plan.FromUSCQ(js.Subs[0])), b.Estimate(plan.FromUSCQ(js.Subs[1]))}, prof)
	if got := b.Estimate(plan.FromJUSCQ(js)); got != want {
		t.Errorf("juscq: estimate %+v, fragment join %+v", got, want)
	}
}

// TestDisjointConstantUnionExplained: a union whose arms project
// different head constants — the shape a push-Distinct rule would
// target — passes Rewrite unchanged, and its native EXPLAIN carries an
// actual row count on every node and an estimate on every node the
// profile costs (all but the Union, whose figures the Distinct above it
// reports).
func TestDisjointConstantUnionExplained(t *testing.T) {
	db := loadDB(t, LayoutSimple, "A(a)\nB(b)\nC(k1)\nC(k2)")
	x := query.Var("x")
	tagged := func(pred, tag string) query.CQ {
		return query.CQ{Name: "q", Head: []query.Term{x, query.Cst(tag)}, Atoms: []query.Atom{query.ConceptAtom(pred, x)}}
	}
	n := plan.FromUCQ(query.UCQ{Name: "q", Disjuncts: []query.CQ{tagged("A", "k1"), tagged("B", "k2")}})
	if r := plan.Rewrite(n); r != n {
		t.Fatalf("Rewrite changed the union: %s", r)
	}
	rr, err := compilePlan(t, db, ProfilePostgres(), n).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Tuples) != 2 {
		t.Fatalf("tuples = %v", rr.Tuples)
	}
	var walk func(*plan.ExplainNode)
	walk = func(e *plan.ExplainNode) {
		if e.ActualRows == plan.UnknownRows {
			t.Errorf("%s %s: no actual rows", e.Op, e.Detail)
		}
		if e.Op != "union" && e.EstRows == plan.UnknownRows {
			t.Errorf("%s %s: no estimate", e.Op, e.Detail)
		}
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(rr.Explain.Root)
}

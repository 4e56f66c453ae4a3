package engine

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dllite"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/query"
)

// jucqOf builds a JUCQ whose fragments are single-CQ UCQs parsed from
// the given texts, with the given overall head variables.
func jucqOf(headVars []string, frags ...string) query.JUCQ {
	j := query.JUCQ{Name: "q"}
	for _, v := range headVars {
		j.Head = append(j.Head, query.Var(v))
	}
	for _, f := range frags {
		j.Subs = append(j.Subs, query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ(f)}})
	}
	return j
}

// TestHashJoinMatchesNaiveJUCQ: the streaming hash-join pipeline and
// the reference evaluator agree on a multi-fragment cover, on both
// layouts, sequential and parallel.
func TestHashJoinMatchesNaiveJUCQ(t *testing.T) {
	j := jucqOf([]string{"x"},
		"f1(x, y) <- supervisedBy(x, y)",
		"f2(y) <- Researcher(y)",
		"f3(x) <- PhDStudent(x)",
	)
	want := naive.EvalJUCQ(j, dllite.MustParseABox(sampleABox))
	if want.Size() != 1 { // Damian
		t.Fatalf("naive = %v", want.Sorted())
	}
	for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
		db := loadDB(t, layout, sampleABox)
		for _, workers := range []int{1, 4} {
			got := drainPlan(t, db, ProfilePostgres(), plan.FromJUCQ(j), workers)
			if !sameSets(relToSet(got, db.Dict), naiveToSet(want)) {
				t.Fatalf("%v workers=%d: streaming %v != naive %v",
					layout, workers, got.Rows, want.Sorted())
			}
		}
	}
}

// TestHashJoinEmptyBuildSide: a fragment with no matches kills the join
// (dead short-circuit), matching the reference evaluator.
func TestHashJoinEmptyBuildSide(t *testing.T) {
	j := jucqOf([]string{"x"},
		"f1(x, y) <- supervisedBy(x, y)",
		"f2(y) <- Unicorn(y)",
	)
	db := loadDB(t, LayoutSimple, sampleABox)
	for _, workers := range []int{1, 4} {
		got := drainPlan(t, db, ProfilePostgres(), plan.FromJUCQ(j), workers)
		if len(got.Rows) != 0 {
			t.Fatalf("workers=%d: want empty, got %v", workers, got.Rows)
		}
	}
	if want := naive.EvalJUCQ(j, dllite.MustParseABox(sampleABox)); want.Size() != 0 {
		t.Fatalf("naive disagrees: %v", want.Sorted())
	}
}

// TestHashJoinCrossProduct: fragments sharing no variable join as a
// cross product (empty join-column list).
func TestHashJoinCrossProduct(t *testing.T) {
	j := jucqOf([]string{"x", "y"},
		"f1(x) <- PhDStudent(x)",
		"f2(y) <- Researcher(y)",
	)
	db := loadDB(t, LayoutSimple, sampleABox)
	want := naive.EvalJUCQ(j, dllite.MustParseABox(sampleABox))
	if want.Size() != 2 { // Damian × {Ioana, Francois}
		t.Fatalf("naive = %v", want.Sorted())
	}
	for _, workers := range []int{1, 4} {
		got := drainPlan(t, db, ProfilePostgres(), plan.FromJUCQ(j), workers)
		if !sameSets(relToSet(got, db.Dict), naiveToSet(want)) {
			t.Fatalf("workers=%d: %v != %v", workers, got.Rows, want.Sorted())
		}
	}
}

// TestHashJoinReuse: the compiled cover tree re-executes from scratch on
// every Open/Drain cycle, sequential and parallel.
func TestHashJoinReuse(t *testing.T) {
	j := jucqOf([]string{"x"},
		"f1(x, y) <- supervisedBy(x, y)",
		"f2(y) <- Researcher(y)",
	)
	db := loadDB(t, LayoutSimple, sampleABox)
	c := compilePlan(t, db, ProfilePostgres(), plan.FromJUCQ(j))
	for _, workers := range []int{1, 4} {
		op, _ := c.Tree(workers)
		first := Drain(op)
		if len(first.Rows) == 0 {
			t.Fatal("unexpected empty join")
		}
		for i := 0; i < 3; i++ {
			again := Drain(op)
			if !sameSets(relToSet(again, db.Dict), relToSet(first, db.Dict)) {
				t.Fatalf("workers=%d: re-execution %d differs", workers, i)
			}
		}
	}
}

// randJUCQ builds a random multi-fragment JUCQ over the shared test
// vocabulary: every fragment binds its head variables, fragments may or
// may not share variables (exercising both keyed joins and cross
// products), and fragments may be empty on the random data.
func randJUCQ(r *rand.Rand) query.JUCQ {
	concepts := []string{"A", "B", "PhDStudent", "Researcher", "Nothing"}
	roles := []string{"R", "S", "worksWith", "supervisedBy"}
	headSets := [][]string{{"x"}, {"y"}, {"x", "y"}}
	nf := 2 + r.Intn(2)
	j := query.JUCQ{Name: "q"}
	seen := map[string]bool{}
	for f := 0; f < nf; f++ {
		hv := headSets[r.Intn(len(headSets))]
		var head []query.Term
		for _, v := range hv {
			head = append(head, query.Var(v))
			if !seen[v] {
				seen[v] = true
				j.Head = append(j.Head, query.Var(v))
			}
		}
		u := query.UCQ{}
		for d, nd := 0, 1+r.Intn(2); d < nd; d++ {
			var atoms []query.Atom
			for _, v := range hv {
				// Bind every head variable.
				if r.Intn(2) == 0 {
					atoms = append(atoms, query.ConceptAtom(concepts[r.Intn(len(concepts))], query.Var(v)))
				} else {
					atoms = append(atoms, query.RoleAtom(roles[r.Intn(len(roles))], query.Var(v), query.Var("z")))
				}
			}
			if r.Intn(2) == 0 {
				atoms = append(atoms, query.RoleAtom(roles[r.Intn(len(roles))],
					query.Var(hv[0]), query.Var("w")))
			}
			u.Disjuncts = append(u.Disjuncts, query.CQ{Name: "f", Head: head, Atoms: atoms})
		}
		j.Subs = append(j.Subs, u)
	}
	return j
}

// TestPropHashJoinMatchesNaive: streaming cover execution equals the
// reference evaluator on random fragment sets, data, and worker counts
// — empty fragments and cross products included.
func TestPropHashJoinMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		j := randJUCQ(r)
		db := NewDB(LayoutSimple)
		db.LoadABox(ab)
		want := naiveToSet(naive.EvalJUCQ(j, ab))
		for _, workers := range []int{1, 4} {
			got := drainPlan(t, db, ProfilePostgres(), plan.FromJUCQ(j), workers)
			if !sameSets(relToSet(got, db.Dict), want) {
				t.Logf("seed=%d workers=%d: %d vs %d rows for %s",
					seed, workers, len(got.Rows), len(want), j.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestCoverJoinOrder: the largest fragment drives the probe pass and the
// build sides load smallest-first.
func TestCoverJoinOrder(t *testing.T) {
	probe, builds := coverJoinOrder([]float64{10, 500, 3, 40})
	if probe != 1 {
		t.Fatalf("probe = %d", probe)
	}
	if len(builds) != 3 || builds[0] != 2 || builds[1] != 0 || builds[2] != 3 {
		t.Fatalf("builds = %v", builds)
	}
}

// TestClampWorkers: the shared worker-budget policy caps at the task
// count, the machine, and the requested budget, with a floor of one.
func TestClampWorkers(t *testing.T) {
	maxp := runtime.GOMAXPROCS(0)
	if got, want := clampWorkers(8, 2), min(2, maxp); got != want {
		t.Fatalf("clamp to tasks: %d, want %d", got, want)
	}
	if got := clampWorkers(0, 5); got != 1 {
		t.Fatalf("floor: %d", got)
	}
	if got := clampWorkers(3, 5); got > 3 || got > maxp {
		t.Fatalf("budget exceeded: %d", got)
	}
	if got := clampWorkers(1000, 1000); got > maxp {
		t.Fatalf("machine cap exceeded: %d > %d", got, maxp)
	}
}

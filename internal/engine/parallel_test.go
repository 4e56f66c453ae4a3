package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dllite"
	"repro/internal/plan"
	"repro/internal/query"
)

func TestParallelMatchesSequential(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	u := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- PhDStudent(x)"),
		query.MustParseCQ("q(x) <- Researcher(x)"),
		query.MustParseCQ("q(x) <- supervisedBy(x, y)"),
		query.MustParseCQ("q(x) <- worksWith(y, x)"),
	}}
	n := plan.FromUCQ(u)
	seq := drainPlan(t, db, ProfilePostgres(), n, 1)
	for _, workers := range []int{1, 2, 4, 16} {
		par := drainPlan(t, db, ProfilePostgres(), n, workers)
		if !sameSets(relToSet(par, db.Dict), relToSet(seq, db.Dict)) {
			t.Errorf("workers=%d: parallel result differs", workers)
		}
	}
}

// TestPropParallelEquivalence asserts, on randomized UCQs and data,
// that the parallel union operator computes exactly the sequential
// answer set (run under -race in CI).
func TestPropParallelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		db := NewDB(LayoutSimple)
		db.LoadABox(ab)
		var u query.UCQ
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			u.Disjuncts = append(u.Disjuncts, randQuery(r))
		}
		// All disjuncts must share head arity for a well-formed UCQ.
		for i := range u.Disjuncts {
			u.Disjuncts[i].Head = u.Disjuncts[i].Head[:1]
		}
		tree := plan.FromUCQ(u)
		seq := drainPlan(t, db, ProfileDB2(), tree, 1)
		par := drainPlan(t, db, ProfileDB2(), tree, 4)
		return sameSets(relToSet(par, db.Dict), relToSet(seq, db.Dict))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestParallelSingleArmFallsBack(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	u := query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ("q(x) <- Researcher(x)")}}
	if got := drainPlan(t, db, ProfilePostgres(), plan.FromUCQ(u), 8); len(got.Rows) != 2 {
		t.Errorf("single-arm parallel = %d rows", len(got.Rows))
	}
}

// TestParallelEarlyClose closes the parallel union before draining it;
// the workers must unblock and exit without deadlock or leak.
func TestParallelEarlyClose(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	var ds []query.CQ
	for i := 0; i < 32; i++ {
		ds = append(ds, query.MustParseCQ("q(x) <- Researcher(x)"))
		ds = append(ds, query.MustParseCQ("q(x) <- supervisedBy(x, y)"))
	}
	arms := make([]Operator, len(ds))
	for i, d := range ds {
		arms[i] = cqTree(d, db)
	}
	op := NewUnionParallel(arms[0].Schema(), arms, 4)
	op.Open()
	b := NewBatch(len(op.Schema()))
	op.Next(b) // take at most one batch, then abandon the rest
	op.Close()
}

// TestParallelManyArms drains a parallel union of 32 arms through 8
// workers: more arms than workers, every worker runs several.
func TestParallelManyArms(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	var ds []query.CQ
	for i := 0; i < 16; i++ {
		ds = append(ds, query.MustParseCQ("q(x) <- Researcher(x)"))
		ds = append(ds, query.MustParseCQ("q(x) <- supervisedBy(x, y)"))
	}
	rel := drainPlan(t, db, ProfilePostgres(), plan.FromUCQ(query.UCQ{Disjuncts: ds}), 8)
	if len(rel.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rel.Rows))
	}
}

package search

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// TestEDLIsExhaustiveOptimum: on a space small enough to enumerate
// fully, EDL's winner must equal the brute-force minimum over every
// cover of Gq.
func TestEDLIsExhaustiveOptimum(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)")
	db := buildDB(t, sampleData)
	ref := reformulate.New(tb)
	est := &ExtEstimator{Model: cost.NewModel(db)}

	best := -1.0
	cover.EnumerateGeneralizedCovers(q, tb, 0, func(c cover.Cover) bool {
		j, err := c.ReformulateJUCQ(ref)
		if err != nil {
			t.Fatal(err)
		}
		if v := est.Estimate(plan.FromJUCQ(j)); best < 0 || v < best {
			best = v
		}
		return true
	})
	res := EDL(q, tb, ref, est, Options{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Cost != best {
		t.Errorf("EDL cost %.2f != brute-force optimum %.2f", res.Cost, best)
	}
}

// TestGDLDeterministic: identical inputs yield identical covers.
func TestGDLDeterministic(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	db := buildDB(t, sampleData)
	est := &ExtEstimator{Model: cost.NewModel(db)}
	r1 := GDL(q, tb, reformulate.New(tb), est, Options{})
	r2 := GDL(q, tb, reformulate.New(tb), est, Options{})
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Cover.Key() != r2.Cover.Key() {
		t.Errorf("GDL nondeterministic: %v vs %v", r1.Cover, r2.Cover)
	}
	if r1.Cost != r2.Cost {
		t.Errorf("costs differ: %v vs %v", r1.Cost, r2.Cost)
	}
}

// TestGDLSingleAtomQuery: degenerate input.
func TestGDLSingleAtomQuery(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x)")
	db := buildDB(t, sampleData)
	est := &RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()}
	res := GDL(q, tb, reformulate.New(tb), est, Options{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Cover.Frags) != 1 {
		t.Errorf("single-atom query must keep one fragment: %v", res.Cover)
	}
	if res.Moves != 0 {
		t.Errorf("no moves possible, got %d", res.Moves)
	}
}

// TestGDLWithBrokenReformulator: blowup errors surface as Result.Err.
func TestGDLWithBrokenReformulator(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	db := buildDB(t, sampleData)
	ref := reformulate.New(tb)
	ref.MaxQueries = 1 // everything blows the budget
	est := &ExtEstimator{Model: cost.NewModel(db)}
	res := GDL(q, tb, ref, est, Options{})
	if res.Err == nil {
		t.Fatal("expected reformulation error to propagate")
	}
}

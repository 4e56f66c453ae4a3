package search

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
)

const paperTBox = `
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
`

const runningTBox = `
Graduate <= exists supervisedBy
role: supervisedBy <= worksWith
`

func buildDB(t *testing.T, text string) *engine.DB {
	t.Helper()
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox(text))
	return db
}

const sampleData = `
PhDStudent(Damian)
Graduate(Damian)
PhDStudent(Alice)
worksWith(Alice, Bob)
supervisedBy(Carl, Bob)
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
Researcher(Ioana)
Researcher(Francois)
`

func TestGDLFindsValidCover(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)")
	db := buildDB(t, sampleData)
	ref := reformulate.New(tb)
	est := &RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()}
	res := GDL(q, tb, ref, est, Options{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Cover.InGq(tb) {
		t.Errorf("GDL cover not in Gq: %v", res.Cover)
	}
	if res.ExploredLq+res.ExploredGq == 0 {
		t.Error("no covers explored")
	}
	// The winning cover's answers must equal the UCQ reformulation's.
	u := ref.MustReformulate(q)
	ab := dllite.MustParseABox(sampleData)
	want := naive.EvalUCQ(u, ab)
	j, err := res.Cover.ReformulateJUCQ(ref)
	if err != nil {
		t.Fatal(err)
	}
	got := naive.EvalJUCQ(j, ab)
	if !naive.SameAnswers(got, want) {
		t.Errorf("GDL cover answers differ: %v vs %v", got.Sorted(), want.Sorted())
	}
}

func TestGDLNeverWorseThanCroot(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	db := buildDB(t, sampleData)
	ref := reformulate.New(tb)
	for _, est := range []Estimator{
		&RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()},
		&RDBMSEstimator{DB: db, Profile: engine.ProfileDB2()},
		&ExtEstimator{Model: cost.NewModel(db)},
	} {
		res := GDL(q, tb, ref, est, Options{})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		root := cover.RootCover(q, tb)
		j, err := root.ReformulateJUCQ(ref)
		if err != nil {
			t.Fatal(err)
		}
		rootCost := est.Estimate(plan.FromJUCQ(j))
		if res.Cost > rootCost {
			t.Errorf("%s: GDL cost %.1f worse than Croot %.1f", est.Name(), res.Cost, rootCost)
		}
	}
}

func TestEDLAtLeastAsGoodAsGDL(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)")
	db := buildDB(t, sampleData)
	ref := reformulate.New(tb)
	est := &ExtEstimator{Model: cost.NewModel(db)}
	gdl := GDL(q, tb, ref, est, Options{})
	edl := EDL(q, tb, ref, est, Options{})
	if gdl.Err != nil || edl.Err != nil {
		t.Fatal(gdl.Err, edl.Err)
	}
	if edl.Cost > gdl.Cost {
		t.Errorf("EDL (%.2f) must be ≤ GDL (%.2f)", edl.Cost, gdl.Cost)
	}
	if !edl.Cover.InGq(tb) {
		t.Error("EDL winner must be in Gq")
	}
}

func TestEDLRespectsLimit(t *testing.T) {
	tb := dllite.MustParseTBox("Unrelated <= Thing")
	q := query.MustParseCQ("q(x) <- A(x), R(x, y), B(y), S(y, z)")
	db := buildDB(t, "A(a)\nR(a, b)\nB(b)\nS(b, c)")
	ref := reformulate.New(tb)
	est := &ExtEstimator{Model: cost.NewModel(db)}
	res := EDL(q, tb, ref, est, Options{MaxCovers: 5})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.ExploredLq+res.ExploredGq > 5 {
		t.Errorf("explored %d covers, limit 5", res.ExploredLq+res.ExploredGq)
	}
}

func TestTimeLimitedGDL(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ(
		"q(x) <- PhDStudent(x), worksWith(x, y), Researcher(y), worksWith(y, z), PhDStudent(z)")
	db := buildDB(t, sampleData)
	ref := reformulate.New(tb)
	est := &ExtEstimator{Model: cost.NewModel(db)}
	res := GDL(q, tb, ref, est, Options{TimeLimit: 20 * time.Millisecond})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Elapsed > 500*time.Millisecond {
		t.Errorf("time-limited GDL ran %v", res.Elapsed)
	}
	if res.Cover.Q.Name == "" && len(res.Cover.Frags) == 0 {
		t.Error("time-limited GDL must still return a cover")
	}
	// Section 6.4: the time-limited result should be close to the full
	// run. We check it is never better (it explores a subset).
	full := GDL(q, tb, ref, est, Options{})
	if res.Cost < full.Cost {
		t.Errorf("time-limited GDL cost %.2f beats full GDL %.2f", res.Cost, full.Cost)
	}
}

func TestGDLExploresFewCovers(t *testing.T) {
	// Table 6's point: GDL explores dramatically fewer covers than |Gq|.
	tb := dllite.MustParseTBox("Unrelated <= Thing")
	q := query.MustParseCQ("q(x) <- A(x), R(x, y), B(y), S(y, z), C(z)")
	db := buildDB(t, "A(a)\nR(a, b)\nB(b)\nS(b, c)\nC(c)")
	ref := reformulate.New(tb)
	est := &ExtEstimator{Model: cost.NewModel(db)}
	res := GDL(q, tb, ref, est, Options{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	gq := cover.CountGeneralizedCovers(q, tb, 0)
	explored := res.ExploredLq + res.ExploredGq
	if explored >= gq {
		t.Errorf("GDL explored %d of %d covers; expected far fewer", explored, gq)
	}
}

func TestEstimatorNames(t *testing.T) {
	db := buildDB(t, "A(a)")
	r := &RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()}
	if !strings.Contains(r.Name(), "postgres") {
		t.Errorf("name = %s", r.Name())
	}
	e := &ExtEstimator{Model: cost.NewModel(db)}
	if e.Name() != "ext" {
		t.Errorf("name = %s", e.Name())
	}
}

func TestGDLMemoizesCovers(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)")
	db := buildDB(t, sampleData)
	ref := reformulate.New(tb)
	calls := 0
	est := &countingEstimator{inner: &ExtEstimator{Model: cost.NewModel(db)}, calls: &calls}
	res := GDL(q, tb, ref, est, Options{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if calls != res.ExploredLq+res.ExploredGq {
		t.Errorf("estimator called %d times for %d distinct covers", calls, res.ExploredLq+res.ExploredGq)
	}
}

type countingEstimator struct {
	inner Estimator
	calls *int
}

func (c *countingEstimator) Name() string { return c.inner.Name() }
func (c *countingEstimator) Estimate(n *plan.Node) float64 {
	*c.calls++
	return c.inner.Estimate(n)
}

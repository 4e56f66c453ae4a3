package cost

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

func buildDB(t *testing.T, layout engine.Layout) *engine.DB {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		sb.WriteString("R(s")
		sb.WriteString(itoa(i % 60))
		sb.WriteString(", o")
		sb.WriteString(itoa(i % 17))
		sb.WriteString(")\n")
	}
	for i := 0; i < 40; i++ {
		sb.WriteString("A(s")
		sb.WriteString(itoa(i))
		sb.WriteString(")\n")
	}
	db := engine.NewDB(layout)
	db.LoadABox(dllite.MustParseABox(sb.String()))
	return db
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

func TestCQCostPositive(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	e := m.CQ(query.MustParseCQ("q(x) <- A(x), R(x, y)"))
	if e.Cost <= 0 || e.Card <= 0 {
		t.Fatalf("degenerate estimate: %+v", e)
	}
}

func TestCostMonotoneInUnionSize(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	d := query.MustParseCQ("q(x) <- A(x), R(x, y)")
	u5 := query.UCQ{Disjuncts: []query.CQ{d, d, d, d, d}}
	u10 := query.UCQ{Disjuncts: append(append([]query.CQ{}, u5.Disjuncts...), u5.Disjuncts...)}
	if m.UCQ(u10).Cost <= m.UCQ(u5).Cost {
		t.Error("UCQ cost must grow with the number of arms")
	}
}

func TestIndexedAccessCheaperThanScan(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	// A(x) ∧ R(x,y): after binding x via A, R is index-accessed.
	withIndex := m.CQ(query.MustParseCQ("q(x) <- A(x), R(x, y)"))
	// The disconnected R(z,y) atom forces a full scan per binding.
	scan := m.CQ(query.MustParseCQ("q(x) <- A(x), R(x, w), R(z, y)"))
	if withIndex.Cost >= scan.Cost {
		t.Errorf("indexed plan (%.1f) should be cheaper than scan-heavy plan (%.1f)",
			withIndex.Cost, scan.Cost)
	}
}

func TestRDFLayoutMultiplier(t *testing.T) {
	q := query.MustParseCQ("q(x, y) <- R(x, y)")
	mS := NewModel(buildDB(t, engine.LayoutSimple))
	mR := NewModel(buildDB(t, engine.LayoutRDF))
	if mR.CQ(q).Cost <= mS.CQ(q).Cost {
		t.Error("RDF layout access must be estimated costlier")
	}
}

func TestJUCQCostIncludesMaterialization(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	u := query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ("f(x) <- A(x)")}}
	j1 := query.JUCQ{Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{u}}
	j2 := query.JUCQ{Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{u, u}}
	if m.JUCQ(j2).Cost <= m.JUCQ(j1).Cost {
		t.Error("extra fragments must add materialization cost")
	}
}

func TestSCQCheaperThanExpansion(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	s := query.SCQ{
		Head: []query.Term{query.Var("x")},
		Blocks: [][]query.Atom{
			{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("B", query.Var("x"))},
			{query.RoleAtom("R", query.Var("x"), query.Var("y")),
				query.RoleAtom("S", query.Var("x"), query.Var("y"))},
		},
	}
	factored := m.SCQ(s)
	expanded := m.UCQ(s.Expand())
	if factored.Cost > expanded.Cost {
		t.Errorf("factorized evaluation (%.1f) should not exceed expansion (%.1f)",
			factored.Cost, expanded.Cost)
	}
}

func TestUSCQAndJUSCQ(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	s := query.SCQ{
		Head:   []query.Term{query.Var("x")},
		Blocks: [][]query.Atom{{query.ConceptAtom("A", query.Var("x"))}},
	}
	u := query.USCQ{Disjuncts: []query.SCQ{s, s}}
	if m.USCQ(u).Cost <= m.SCQ(s).Cost {
		t.Error("USCQ cost must exceed a single SCQ's")
	}
	j := query.JUSCQ{Head: []query.Term{query.Var("x")}, Subs: []query.USCQ{u}}
	if m.JUSCQ(j).Cost <= m.USCQ(u).Cost {
		t.Error("JUSCQ adds materialization on top of the USCQ")
	}
}

func TestCalibrateReturnsScale(t *testing.T) {
	db := buildDB(t, engine.LayoutSimple)
	m := NewModel(db)
	probes := []query.CQ{
		query.MustParseCQ("q(x) <- A(x), R(x, y)"),
		query.MustParseCQ("q(x, y) <- R(x, y)"),
	}
	scale := m.Calibrate(db, engine.ProfilePostgres(), probes)
	if scale <= 0 {
		t.Errorf("calibration scale = %v, want > 0", scale)
	}
	if m.Calibrate(db, engine.ProfilePostgres(), nil) != 0 {
		t.Error("no probes → zero scale")
	}
}

func TestEmptyTablesZeroCard(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	e := m.CQ(query.MustParseCQ("q(x) <- Missing(x)"))
	if e.Card != 0 {
		t.Errorf("unknown table must estimate zero rows, got %v", e.Card)
	}
}

// TestEstimateSharedMatchesFormulas: scoring a cover's plan tree
// fragment by fragment — recalling fragment figures from the shared map
// on later trees — gives exactly the dialect formulas' figures.
func TestEstimateSharedMatchesFormulas(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
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
	shared := map[*plan.Node]Estimate{}
	for _, subs := range [][]query.UCQ{{f1, f2}, {f1, f3}, {f3, f2, f1}, {f2}} {
		j := query.JUCQ{Name: "j", Head: []query.Term{x}, Subs: subs}
		want := m.JUCQ(j)
		if len(subs) == 1 {
			want = m.UCQ(subs[0]) // a single fragment is a plain UCQ plan
		}
		frags := make([]*plan.Node, len(subs))
		for i, u := range subs {
			frags[i] = tree[u.Name]
		}
		n := plan.Cover(j.Name, j.Head, frags)
		if got := m.EstimateShared(n, shared); got != want {
			t.Errorf("%d fragments: shared estimate %+v, formulas %+v", len(subs), got, want)
		}
		if got := m.Estimate(plan.FromJUCQ(j)); got != want {
			t.Errorf("%d fragments: estimate %+v, formulas %+v", len(subs), got, want)
		}
	}
	if len(shared) != 3 {
		t.Errorf("shared map holds %d fragment estimates, want 3", len(shared))
	}
	js := query.JUSCQ{Name: "j", Head: []query.Term{x}, Subs: []query.USCQ{query.FactorizeUCQ(f1), query.FactorizeUCQ(f3)}}
	if got, want := m.Estimate(plan.FromJUSCQ(js)), m.JUSCQ(js); got != want {
		t.Errorf("juscq: estimate %+v, formulas %+v", got, want)
	}
	if est := m.Estimate(&plan.Node{Op: plan.OpJoin}); !math.IsInf(est.Cost, 1) {
		t.Errorf("malformed tree estimates to %+v, want +Inf cost", est)
	}
}

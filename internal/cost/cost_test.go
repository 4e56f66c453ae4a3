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

// ucqPlan lowers the union of the given CQs into a fragment tree.
func ucqPlan(cqs ...query.CQ) *plan.Node {
	return plan.FromUCQ(query.UCQ{Name: "q", Disjuncts: cqs})
}

func cqPlan(text string) *plan.Node { return ucqPlan(query.MustParseCQ(text)) }

func TestCQCostPositive(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	e := m.Estimate(cqPlan("q(x) <- A(x), R(x, y)"))
	if e.Cost <= 0 || e.Card <= 0 {
		t.Fatalf("degenerate estimate: %+v", e)
	}
}

func TestCostMonotoneInUnionSize(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	d := query.MustParseCQ("q(x) <- A(x), R(x, y)")
	u5 := []query.CQ{d, d, d, d, d}
	u10 := append(append([]query.CQ{}, u5...), u5...)
	if m.Estimate(ucqPlan(u10...)).Cost <= m.Estimate(ucqPlan(u5...)).Cost {
		t.Error("UCQ cost must grow with the number of arms")
	}
}

func TestIndexedAccessCheaperThanScan(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	// A(x) ∧ R(x,y): after binding x via A, R is index-accessed.
	withIndex := m.Estimate(cqPlan("q(x) <- A(x), R(x, y)"))
	// The disconnected R(z,y) atom forces a full scan per binding.
	scan := m.Estimate(cqPlan("q(x) <- A(x), R(x, w), R(z, y)"))
	if withIndex.Cost >= scan.Cost {
		t.Errorf("indexed plan (%.1f) should be cheaper than scan-heavy plan (%.1f)",
			withIndex.Cost, scan.Cost)
	}
}

func TestRDFLayoutMultiplier(t *testing.T) {
	q := cqPlan("q(x, y) <- R(x, y)")
	mS := NewModel(buildDB(t, engine.LayoutSimple))
	mR := NewModel(buildDB(t, engine.LayoutRDF))
	if mR.Estimate(q).Cost <= mS.Estimate(q).Cost {
		t.Error("RDF layout access must be estimated costlier")
	}
}

func TestJUCQCostIncludesMaterialization(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	u := query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ("f(x) <- A(x)")}}
	j1 := query.JUCQ{Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{u}}
	j2 := query.JUCQ{Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{u, u}}
	if m.Estimate(plan.FromJUCQ(j2)).Cost <= m.Estimate(plan.FromJUCQ(j1)).Cost {
		t.Error("extra fragments must add materialization cost")
	}
}

func TestUSCQAndJUSCQ(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	s := query.SCQ{
		Head:   []query.Term{query.Var("x")},
		Blocks: [][]query.Atom{{query.ConceptAtom("A", query.Var("x"))}},
	}
	one := m.Estimate(plan.FromUSCQ(query.USCQ{Disjuncts: []query.SCQ{s}}))
	u := query.USCQ{Disjuncts: []query.SCQ{s, s}}
	if m.Estimate(plan.FromUSCQ(u)).Cost <= one.Cost {
		t.Error("USCQ cost must exceed a single SCQ's")
	}
	j := query.JUSCQ{Head: []query.Term{query.Var("x")}, Subs: []query.USCQ{u, u}}
	if m.Estimate(plan.FromJUSCQ(j)).Cost <= m.Estimate(plan.FromUSCQ(u)).Cost {
		t.Error("JUSCQ adds materialization on top of the USCQ")
	}
}

func TestEmptyTablesZeroCard(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	e := m.Estimate(cqPlan("q(x) <- Missing(x)"))
	if e.Card != 0 {
		t.Errorf("unknown table must estimate zero rows, got %v", e.Card)
	}
}

// TestMalformedTreeCostsInf: every tree shape the formulas cannot take
// apart costs +Inf rather than a figure for some other query.
func TestMalformedTreeCostsInf(t *testing.T) {
	m := NewModel(buildDB(t, engine.LayoutSimple))
	a := query.ConceptAtom("A", query.Var("x"))
	r := query.RoleAtom("R", query.Var("x"), query.Var("y"))
	access := func(atoms ...query.Atom) *plan.Node { return &plan.Node{Op: plan.OpAccess, Atoms: atoms} }
	project := func(factorized bool, body *plan.Node) *plan.Node {
		return &plan.Node{Op: plan.OpProject, Head: []query.Term{query.Var("x")}, Factorized: factorized, Inputs: []*plan.Node{body}}
	}
	distinct := func(in *plan.Node) *plan.Node { return &plan.Node{Op: plan.OpDistinct, Inputs: []*plan.Node{in}} }
	union := func(arms ...*plan.Node) *plan.Node { return &plan.Node{Op: plan.OpUnion, Inputs: arms} }
	cover := plan.FromJUCQ(query.JUCQ{Name: "j", Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{
		{Disjuncts: []query.CQ{query.MustParseCQ("f(x) <- A(x)")}},
		{Disjuncts: []query.CQ{query.MustParseCQ("f(x) <- R(x, y)")}},
	}})
	for name, n := range map[string]*plan.Node{
		"bare join":                 {Op: plan.OpJoin},
		"non-project arm":           distinct(union(project(false, access(a)), access(a))),
		"multi-atom non-factorized": distinct(union(project(false, access(a, r)))),
		"collapsed multi-atom arm":  distinct(project(false, access(a, r))),
		"empty factorized block":    distinct(project(true, access())),
		"cover nested in fragment": plan.Cover("j", []query.Term{query.Var("x")},
			[]*plan.Node{cover, cqPlan("f(x) <- A(x)")}),
	} {
		if est := m.Estimate(n); !math.IsInf(est.Cost, 1) {
			t.Errorf("%s: estimates to %+v, want +Inf cost", name, est)
		}
	}
	// The same shapes, well formed, cost a finite figure.
	if est := m.Estimate(distinct(union(project(true, access(a, a))))); math.IsInf(est.Cost, 1) {
		t.Errorf("factorized block estimates to %+v, want a finite cost", est)
	}
}

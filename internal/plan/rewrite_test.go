package plan

import (
	"reflect"
	"testing"

	"repro/internal/query"
)

func TestRewriteCollapsesSingleArmUnion(t *testing.T) {
	u := query.UCQ{Name: "q", Disjuncts: []query.CQ{mustCQ(t, "q(x) <- A(x), R(x, y)")}}
	n := FromUCQ(u)
	r := Rewrite(n)
	if NodeCount(r) >= NodeCount(n) {
		t.Fatalf("node count %d -> %d, want a reduction", NodeCount(n), NodeCount(r))
	}
	if r.Op != OpDistinct || len(r.Inputs) != 1 || r.Inputs[0].Op != OpProject {
		t.Fatalf("rewritten tree = %s", r)
	}
	lo, err := Extract(r)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindUCQ || !reflect.DeepEqual(lo.UCQ, u) {
		t.Fatalf("extract changed the query: %+v", lo)
	}
	// A multi-arm union must be untouched.
	u2 := query.UCQ{Name: "q", Disjuncts: []query.CQ{
		mustCQ(t, "q(x) <- A(x)"), mustCQ(t, "q(x) <- B(x)")}}
	n2 := FromUCQ(u2)
	if Rewrite(n2) != n2 {
		t.Fatal("two-arm union must not be rewritten")
	}
}

func TestRewriteCollapsesFactorizedSingleArm(t *testing.T) {
	u := query.USCQ{Name: "q", Disjuncts: []query.SCQ{{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Blocks: [][]query.Atom{
			{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("B", query.Var("x"))},
			{query.RoleAtom("R", query.Var("x"), query.Var("y"))},
		},
	}}}
	n := FromUSCQ(u)
	r := Rewrite(n)
	if NodeCount(r) >= NodeCount(n) {
		t.Fatalf("node count %d -> %d, want a reduction", NodeCount(n), NodeCount(r))
	}
	lo, err := Extract(r)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindUSCQ || !reflect.DeepEqual(lo.USCQ, u) {
		t.Fatalf("extract changed the query: %+v", lo)
	}
}

func TestRewriteInsideCoverFragments(t *testing.T) {
	j := query.JUCQ{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Subs: []query.UCQ{
			{Name: "f1", Disjuncts: []query.CQ{mustCQ(t, "f1(x) <- R(x, y)")}},
			{Name: "f2", Disjuncts: []query.CQ{
				mustCQ(t, "f2(x) <- A(x)"), mustCQ(t, "f2(x) <- B(x)")}},
		},
	}
	n := FromJUCQ(j)
	r := Rewrite(n)
	if NodeCount(r) >= NodeCount(n) {
		t.Fatalf("node count %d -> %d, want a reduction", NodeCount(n), NodeCount(r))
	}
	lo, err := Extract(r)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindJUCQ || !reflect.DeepEqual(lo.JUCQ, j) {
		t.Fatalf("extract changed the query: %+v", lo)
	}
	// The cover shape survives: fragment 1's single-arm union collapsed,
	// fragment 2's two-arm union did not.
	join := r.Inputs[0].Inputs[0]
	if join.Op != OpJoin || len(join.Inputs) != 2 {
		t.Fatalf("join = %s", r)
	}
	if join.Inputs[0].Inputs[0].Op != OpProject {
		t.Fatalf("fragment 1 not collapsed: %s", join.Inputs[0])
	}
	if join.Inputs[1].Inputs[0].Op != OpUnion {
		t.Fatalf("fragment 2 wrongly collapsed: %s", join.Inputs[1])
	}
}

func TestRewriteMergesNestedProjects(t *testing.T) {
	body := &Node{Op: OpAccess, Atoms: []query.Atom{
		query.RoleAtom("R", query.Var("x"), query.Var("y"))}, Pos: 0}
	inner := &Node{Op: OpProject, Name: "inner",
		Head:   []query.Term{query.Var("x"), query.Var("y")},
		Inputs: []*Node{body}}
	outer := &Node{Op: OpProject, Name: "outer",
		Head:   []query.Term{query.Var("y"), query.Cst("c")},
		Inputs: []*Node{inner}}
	r := Rewrite(outer)
	if r.Op != OpProject || len(r.Inputs) != 1 || r.Inputs[0] != body {
		t.Fatalf("rewritten = %s", r)
	}
	if !reflect.DeepEqual(r.Head, outer.Head) || r.Name != "outer" {
		t.Fatalf("merged head/name wrong: %s", r)
	}
	if NodeCount(r) != 2 {
		t.Fatalf("node count = %d", NodeCount(r))
	}

	// Not mergeable: the outer head names a variable the inner head
	// does not export.
	bad := &Node{Op: OpProject,
		Head:   []query.Term{query.Var("z")},
		Inputs: []*Node{inner}}
	if r := Rewrite(bad); r.Inputs[0].Op != OpProject {
		t.Fatalf("unsound merge applied: %s", r)
	}
	// Not mergeable: a constant in the inner head has no name to
	// rebind through.
	constInner := &Node{Op: OpProject,
		Head:   []query.Term{query.Var("x"), query.Cst("k")},
		Inputs: []*Node{body}}
	top := &Node{Op: OpProject,
		Head:   []query.Term{query.Var("x")},
		Inputs: []*Node{constInner}}
	if r := Rewrite(top); r.Inputs[0].Op != OpProject {
		t.Fatalf("unsound merge applied: %s", r)
	}
}

// taggedUnion builds Distinct(Union(arms)) where each arm projects a
// distinct constant tag in the second head position.
func taggedUnion(tags ...string) *Node {
	arms := make([]*Node, len(tags))
	for i, tag := range tags {
		body := &Node{Op: OpAccess, Atoms: []query.Atom{
			query.ConceptAtom("A"+tag, query.Var("x"))}, Pos: 0}
		arms[i] = &Node{Op: OpProject, Name: "arm-" + tag,
			Head:   []query.Term{query.Var("x"), query.Cst(tag)},
			Inputs: []*Node{body}}
	}
	return &Node{Op: OpDistinct, Name: "q", Inputs: []*Node{
		{Op: OpUnion, Name: "q", Inputs: arms}}}
}

func TestRewritePushDistinctDoesNotFire(t *testing.T) {
	// Shared heads — every reformulated UCQ — are not disjoint.
	u := query.UCQ{Name: "q", Disjuncts: []query.CQ{
		mustCQ(t, "q(x) <- A(x)"), mustCQ(t, "q(x) <- B(x)")}}
	n := FromUCQ(u)
	if r := Rewrite(n); r != n {
		t.Fatalf("shared-head union rewritten: %s", r)
	}
	// A constant against a variable cannot prove disjointness either.
	mixed := taggedUnion("a", "b")
	mixed.Inputs[0].Inputs[1].Head[1] = query.Var("y")
	mixed.Inputs[0].Inputs[1].Inputs[0] = &Node{Op: OpAccess, Atoms: []query.Atom{
		query.RoleAtom("R", query.Var("x"), query.Var("y"))}, Pos: 0}
	if r := Rewrite(mixed); r != mixed {
		t.Fatalf("constant-vs-variable arms rewritten: %s", r)
	}
	// Equal constants overlap.
	same := taggedUnion("a", "a")
	if r := Rewrite(same); r != same {
		t.Fatalf("equal-constant arms rewritten: %s", r)
	}
	// Pairwise-disjoint arms keep their single Distinct above the Union:
	// there is no per-arm Distinct rule.
	disjoint := taggedUnion("a", "b", "c")
	if r := Rewrite(disjoint); r != disjoint {
		t.Fatalf("disjoint tagged union rewritten: %s", r)
	}
	// A Distinct-wrapped arm is not a legal union arm.
	arm := disjoint.Inputs[0].Inputs[0]
	wrapped := taggedUnion("a", "b", "c")
	wrapped.Inputs[0].Inputs[0] = &Node{Op: OpDistinct, Name: arm.Name, Inputs: []*Node{arm}}
	if err := Validate(wrapped); err == nil {
		t.Fatal("Validate accepted a Distinct-wrapped union arm")
	}
	if _, err := Extract(wrapped); err == nil {
		t.Fatal("Extract accepted a Distinct-wrapped union arm")
	}
}

func TestRewriteLeavesOriginalIntact(t *testing.T) {
	u := query.UCQ{Name: "q", Disjuncts: []query.CQ{mustCQ(t, "q(x) <- A(x)")}}
	n := FromUCQ(u)
	before := n.String()
	Rewrite(n)
	if n.String() != before {
		t.Fatal("rewrite mutated the input tree")
	}
}

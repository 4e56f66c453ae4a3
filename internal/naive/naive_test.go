package naive

import (
	"testing"

	"repro/internal/dllite"
	"repro/internal/query"
)

func abox(t *testing.T, s string) *dllite.ABox {
	t.Helper()
	return dllite.MustParseABox(s)
}

func TestEvalCQBasics(t *testing.T) {
	ab := abox(t, `
A(a)
A(b)
R(a, b)
R(b, c)
`)
	rel := EvalCQ(query.MustParseCQ("q(x, y) <- A(x), R(x, y)"), ab)
	if rel.Size() != 2 {
		t.Fatalf("got %d rows: %v", rel.Size(), rel.Sorted())
	}
	sorted := rel.Sorted()
	if sorted[0].Key() != (Tuple{"a", "b"}).Key() || sorted[1].Key() != (Tuple{"b", "c"}).Key() {
		t.Errorf("rows = %v", sorted)
	}
}

func TestEvalCQConstants(t *testing.T) {
	ab := abox(t, "R(a, b)\nR(c, b)\nR(a, d)")
	rel := EvalCQ(query.MustParseCQ("q(x) <- R(x, 'b')"), ab)
	if rel.Size() != 2 {
		t.Fatalf("rows = %v", rel.Sorted())
	}
}

func TestEvalCQRepeatedVar(t *testing.T) {
	ab := abox(t, "R(a, a)\nR(a, b)")
	rel := EvalCQ(query.MustParseCQ("q(x) <- R(x, x)"), ab)
	if rel.Size() != 1 || rel.Sorted()[0][0] != "a" {
		t.Fatalf("diagonal = %v", rel.Sorted())
	}
}

func TestEvalCQBoolean(t *testing.T) {
	ab := abox(t, "A(a)")
	q := query.CQ{Name: "b", Atoms: []query.Atom{query.ConceptAtom("A", query.Var("x"))}}
	if EvalCQ(q, ab).Size() != 1 {
		t.Error("boolean true must yield the empty tuple")
	}
	q2 := query.CQ{Name: "b", Atoms: []query.Atom{query.ConceptAtom("B", query.Var("x"))}}
	if EvalCQ(q2, ab).Size() != 0 {
		t.Error("boolean false must yield no tuples")
	}
}

func TestEvalUCQUnionsDistinct(t *testing.T) {
	ab := abox(t, "A(a)\nB(a)\nB(b)")
	u := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- A(x)"),
		query.MustParseCQ("q(x) <- B(x)"),
	}}
	rel := EvalUCQ(u, ab)
	if rel.Size() != 2 {
		t.Fatalf("union = %v", rel.Sorted())
	}
}

func TestEvalJUCQJoins(t *testing.T) {
	ab := abox(t, `
A(a)
A(b)
R(a, c)
`)
	j := query.JUCQ{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Subs: []query.UCQ{
			{Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- A(x)")}},
			{Disjuncts: []query.CQ{query.MustParseCQ("f2(x) <- R(x, y)")}},
		},
	}
	rel := EvalJUCQ(j, ab)
	if rel.Size() != 1 || rel.Sorted()[0][0] != "a" {
		t.Fatalf("join = %v", rel.Sorted())
	}
}

func TestEvalJUCQCartesianWhenNoSharedVars(t *testing.T) {
	ab := abox(t, "A(a)\nB(b)\nB(c)")
	j := query.JUCQ{
		Name: "q",
		Head: []query.Term{query.Var("x"), query.Var("y")},
		Subs: []query.UCQ{
			{Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- A(x)")}},
			{Disjuncts: []query.CQ{query.MustParseCQ("f2(y) <- B(y)")}},
		},
	}
	if got := EvalJUCQ(j, ab).Size(); got != 2 {
		t.Fatalf("cartesian join = %d rows, want 2", got)
	}
}

func TestEvalSCQAndUSCQ(t *testing.T) {
	ab := abox(t, "A(a)\nB(b)\nR(a, x1)\nS(b, x2)")
	s := query.SCQ{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Blocks: [][]query.Atom{
			{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("B", query.Var("x"))},
			{query.RoleAtom("R", query.Var("x"), query.Var("y")),
				query.RoleAtom("S", query.Var("x"), query.Var("y"))},
		},
	}
	if got := EvalSCQ(s, ab).Size(); got != 2 {
		t.Fatalf("SCQ = %d rows, want 2 (a and b)", got)
	}
	u := query.USCQ{Disjuncts: []query.SCQ{s}}
	if got := EvalUSCQ(u, ab).Size(); got != 2 {
		t.Fatalf("USCQ = %d rows", got)
	}
}

func TestSameAnswers(t *testing.T) {
	r1 := NewRelation([]string{"x"})
	r1.Add(Tuple{"a"})
	r2 := NewRelation([]string{"x"})
	r2.Add(Tuple{"a"})
	if !SameAnswers(r1, r2) {
		t.Error("identical relations must compare equal")
	}
	r2.Add(Tuple{"b"})
	if SameAnswers(r1, r2) {
		t.Error("different sizes must differ")
	}
	r3 := NewRelation([]string{"x"})
	r3.Add(Tuple{"c"})
	if SameAnswers(r1, r3) {
		t.Error("different tuples must differ")
	}
}

func TestRelationSortedStable(t *testing.T) {
	r := NewRelation([]string{"x"})
	r.Add(Tuple{"b"})
	r.Add(Tuple{"a"})
	r.Add(Tuple{"a"}) // duplicate collapses
	s := r.Sorted()
	if len(s) != 2 || s[0][0] != "a" || s[1][0] != "b" {
		t.Errorf("sorted = %v", s)
	}
}

// TestEvalHeadConstant: a head constant answers as itself. PerfectRef's
// reduce step creates such heads: over R(c, d) R(e, d) R(e, f),
// q(x) <- R(x, y), R('c', y) reformulates to a UCQ with the disjunct
// q('c') <- R('c', y), whose answer is c. In a JUCQ fragment the
// constant fills the fragment's head column and joins on its value.
func TestEvalHeadConstant(t *testing.T) {
	ab := abox(t, "R(c, d)\nR(e, d)\nR(e, f)")
	c, y := query.Cst("c"), query.Var("y")
	constHead := query.CQ{Name: "f1", Head: []query.Term{c}, Atoms: []query.Atom{query.RoleAtom("R", c, y)}}
	if rel := EvalCQ(constHead, ab); rel.Size() != 1 || rel.Sorted()[0][0] != "c" {
		t.Fatalf("head constant = %q", rel.Sorted())
	}
	j := query.JUCQ{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Subs: []query.UCQ{
			{Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- R(x, 'f')"), constHead}},
			{Disjuncts: []query.CQ{query.MustParseCQ("f2(x) <- R(x, 'd')")}},
		},
	}
	if rel := EvalJUCQ(j, ab); rel.Size() != 2 || rel.Sorted()[0][0] != "c" || rel.Sorted()[1][0] != "e" {
		t.Fatalf("join on a head constant = %q, want [[c] [e]]", rel.Sorted())
	}
}

package query

import (
	"strings"
	"testing"
)

func TestUCQHeadEmptyUnion(t *testing.T) {
	var u UCQ
	if u.Head() != nil {
		t.Error("empty union has no head")
	}
	if got := u.Dedup(); len(got.Disjuncts) != 0 {
		t.Error("dedup of empty union")
	}
	if got := u.Minimize(); len(got.Disjuncts) != 0 {
		t.Error("minimize of empty union")
	}
}

func TestSCQEmptyBlocksExpand(t *testing.T) {
	s := SCQ{Name: "q", Head: []Term{Var("x")}, Blocks: [][]Atom{
		{ConceptAtom("A", Var("x"))},
	}}
	u := s.Expand()
	if len(u.Disjuncts) != 1 {
		t.Fatalf("expand = %d disjuncts", len(u.Disjuncts))
	}
	if s.NumChoices() != 1 {
		t.Errorf("choices = %d", s.NumChoices())
	}
}

func TestUSCQStringAndExpand(t *testing.T) {
	u := USCQ{Disjuncts: []SCQ{
		{Name: "q", Head: []Term{Var("x")}, Blocks: [][]Atom{
			{ConceptAtom("A", Var("x")), ConceptAtom("B", Var("x"))},
		}},
		{Name: "q", Head: []Term{Var("x")}, Blocks: [][]Atom{
			{ConceptAtom("C", Var("x"))},
		}},
	}}
	if got := len(u.Expand().Disjuncts); got != 3 {
		t.Errorf("expanded = %d disjuncts, want 3", got)
	}
	s := u.String()
	if !strings.Contains(s, "∨") || !strings.Contains(s, "A(x)") {
		t.Errorf("rendering: %s", s)
	}
}

func TestFactorizeSingleton(t *testing.T) {
	u := UCQ{Disjuncts: []CQ{MustParseCQ("q(x) <- A(x)")}}
	f := FactorizeUCQ(u)
	if len(f.Disjuncts) != 1 || f.Disjuncts[0].NumChoices() != 1 {
		t.Errorf("singleton factorization = %v", f)
	}
}

func TestFactorizeConstantsBlockGrouping(t *testing.T) {
	// Same predicate-blind pattern but different constants must not be
	// merged into one product family.
	u := UCQ{Disjuncts: []CQ{
		MustParseCQ("q(x) <- R(x, 'a')"),
		MustParseCQ("q(x) <- R(x, 'b')"),
		MustParseCQ("q(x) <- S(x, 'a')"),
	}}
	f := FactorizeUCQ(u)
	total := 0
	for _, s := range f.Disjuncts {
		total += s.NumChoices()
	}
	if total != 3 {
		t.Fatalf("factorization changed semantics: %d choices", total)
	}
	back := f.Expand().Dedup()
	if len(back.Disjuncts) != 3 {
		t.Fatalf("round trip = %d disjuncts", len(back.Disjuncts))
	}
}

func TestJUSCQString(t *testing.T) {
	sub := USCQ{Disjuncts: []SCQ{{
		Head:   []Term{Var("x")},
		Blocks: [][]Atom{{ConceptAtom("A", Var("x"))}},
	}}}
	j := JUSCQ{Head: []Term{Var("x")}, Subs: []USCQ{sub, sub}}
	if !strings.Contains(j.String(), "⋈") {
		t.Errorf("JUSCQ rendering: %s", j.String())
	}
}

func TestCanonicalKeyBooleanQueries(t *testing.T) {
	q1 := CQ{Name: "b", Atoms: []Atom{ConceptAtom("A", Var("x"))}}
	q2 := CQ{Name: "c", Atoms: []Atom{ConceptAtom("A", Var("y"))}}
	if CanonicalKey(q1) != CanonicalKey(q2) {
		t.Error("boolean queries with renamed vars share keys")
	}
	q3 := CQ{Name: "b", Head: []Term{Var("x")}, Atoms: []Atom{ConceptAtom("A", Var("x"))}}
	if CanonicalKey(q1) == CanonicalKey(q3) {
		t.Error("boolean and unary-head queries must differ")
	}
}

func TestMinimizeCQSingleAtom(t *testing.T) {
	q := MustParseCQ("q(x) <- A(x)")
	if m := MinimizeCQ(q); len(m.Atoms) != 1 {
		t.Errorf("minimized single atom = %v", m)
	}
}

// NumChoices returns the number of CQs the SCQ stands for (the product
// of block sizes).
func (s SCQ) NumChoices() int {
	n := 1
	for _, b := range s.Blocks {
		n *= len(b)
	}
	return n
}

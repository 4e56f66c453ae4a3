package reformulate

import (
	"testing"

	"repro/internal/dllite"
	"repro/internal/query"
)

func TestContainedUnderTBox(t *testing.T) {
	tb := dllite.MustParseTBox(`
PhDStudent <= Student
Student <= Person
role: advisedBy <= supervisedBy
`)
	r := New(tb)
	cases := []struct {
		q1, q2 string
		want   bool
	}{
		// Subclass: asking for PhD students is contained in asking for persons.
		{"q(x) <- PhDStudent(x)", "q(x) <- Person(x)", true},
		{"q(x) <- Person(x)", "q(x) <- PhDStudent(x)", false},
		// Subrole.
		{"q(x, y) <- advisedBy(x, y)", "q(x, y) <- supervisedBy(x, y)", true},
		{"q(x, y) <- supervisedBy(x, y)", "q(x, y) <- advisedBy(x, y)", false},
		// Conjunction weakening.
		{"q(x) <- PhDStudent(x), advisedBy(x, y)", "q(x) <- Student(x)", true},
		// Plain equivalence is still detected.
		{"q(x) <- Student(x), Student(x)", "q(x) <- Student(x)", true},
	}
	for _, c := range cases {
		got, err := ContainedUnderTBox(query.MustParseCQ(c.q1), query.MustParseCQ(c.q2), r)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s ⊑_T %s: got %v, want %v", c.q1, c.q2, got, c.want)
		}
	}
}

func TestEquivalentUnderTBox(t *testing.T) {
	// A ≡_T B when A ⊑ B and B ⊑ A.
	tb := dllite.MustParseTBox("A <= B\nB <= A")
	r := New(tb)
	eq, err := EquivalentUnderTBox(
		query.MustParseCQ("q(x) <- A(x)"),
		query.MustParseCQ("q(x) <- B(x)"), r)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("A and B are equivalent under the cyclic TBox")
	}
	neq, err := EquivalentUnderTBox(
		query.MustParseCQ("q(x) <- A(x)"),
		query.MustParseCQ("q(x) <- C(x)"), r)
	if err != nil {
		t.Fatal(err)
	}
	if neq {
		t.Error("A and C are unrelated")
	}
}

func TestReformulateMinimalPaperExample(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	r := New(tb)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	m, err := r.ReformulateMinimal(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Disjuncts) != 4 {
		t.Fatalf("minimal UCQ has %d disjuncts, want 4 (§2.3)", len(m.Disjuncts))
	}
	// Memoized on second call.
	m2, err := r.ReformulateMinimal(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Disjuncts) != 4 {
		t.Fatal("memoized minimal reformulation differs")
	}
}

func TestMinimalEquivalentToFull(t *testing.T) {
	// The minimal UCQ answers exactly like the full one.
	tb := dllite.MustParseTBox(paperTBox)
	r := New(tb)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	full := r.MustReformulate(q)
	min, err := r.ReformulateMinimal(q)
	if err != nil {
		t.Fatal(err)
	}
	ab := dllite.MustParseABox(`
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
PhDStudent(Alice)
worksWith(Bob, Alice)
`)
	if got, want := evalUCQ(min, ab), evalUCQ(full, ab); len(got) != len(want) {
		t.Fatalf("minimal answers %v differ from full %v", got, want)
	}
}

// EquivalentUnderTBox reports mutual containment modulo the ontology.
func EquivalentUnderTBox(q1, q2 query.CQ, r *Reformulator) (bool, error) {
	a, err := ContainedUnderTBox(q1, q2, r)
	if err != nil || !a {
		return false, err
	}
	return ContainedUnderTBox(q2, q1, r)
}

// ContainedUnderTBox decides containment modulo the ontology:
// q1 ⊑_T q2 holds when every certain answer of q1 is a certain answer
// of q2 over every T-consistent ABox. By FOL-reducibility this reduces
// to plain UCQ containment of the reformulations, and containment of a
// CQ in a union of CQs holds iff it is contained in one of the
// disjuncts (Sagiv–Yannakakis).
//
// With negative constraints in the TBox the test is sound but may be
// incomplete: a disjunct whose frozen body is T-inconsistent can never
// produce answers, so it could be ignored; we keep it, erring toward
// "not contained".
func ContainedUnderTBox(q1, q2 query.CQ, r *Reformulator) (bool, error) {
	u1, err := r.Reformulate(q1)
	if err != nil {
		return false, err
	}
	u2, err := r.Reformulate(q2)
	if err != nil {
		return false, err
	}
	for _, d1 := range u1.Disjuncts {
		found := false
		for _, d2 := range u2.Disjuncts {
			if query.ContainedIn(d1, d2) {
				found = true
				break
			}
		}
		if !found {
			return false, nil
		}
	}
	return true, nil
}

package dllite

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// paperTBox is Table 2 of the paper (axioms T1–T7).
const paperTBox = `
# Table 2
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
PhDStudent <= not exists supervisedBy-
`

// paperABox is Example 1 (A1–A3).
const paperABox = `
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
`

func paperKB(t *testing.T) KB {
	t.Helper()
	tb, err := ParseTBoxString(paperTBox)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumConstraints() != 7 {
		t.Fatalf("want 7 axioms, got %d", tb.NumConstraints())
	}
	ab, err := ParseABox(strings.NewReader(paperABox))
	if err != nil {
		t.Fatal(err)
	}
	return KB{T: tb, A: ab}
}

func TestRoleInverse(t *testing.T) {
	r := R("worksWith")
	if r.Inverse() != RInv("worksWith") || r.Inverse().Inverse() != r {
		t.Error("inverse is an involution")
	}
	if R("supervisedBy").String() != "supervisedBy" || RInv("supervisedBy").String() != "supervisedBy⁻" {
		t.Error("role rendering")
	}
}

func TestConceptPredName(t *testing.T) {
	if C("A").PredName() != "A" {
		t.Error("atomic PredName")
	}
	if Some(RInv("R")).PredName() != "R" {
		t.Error("cr(∃R⁻) = R (Definition 4)")
	}
	if Some(R("R")).String() != "∃R" || Some(RInv("R")).String() != "∃R⁻" {
		t.Error("concept rendering")
	}
}

func TestParseAxiomForms(t *testing.T) {
	cases := map[string]Axiom{
		"A <= B":                    CIncl(C("A"), C("B")),
		"A <= exists R":             CIncl(C("A"), Some(R("R"))),
		"A <= exists R-":            CIncl(C("A"), Some(RInv("R"))),
		"exists R <= A":             CIncl(Some(R("R")), C("A")),
		"exists R- <= A":            CIncl(Some(RInv("R")), C("A")),
		"exists R <= exists S":      CIncl(Some(R("R")), Some(R("S"))),
		"exists R- <= exists S-":    CIncl(Some(RInv("R")), Some(RInv("S"))),
		"role: P <= Q":              RIncl(R("P"), R("Q")),
		"P <= Q-":                   RIncl(R("P"), RInv("Q")),
		"P- <= Q":                   RIncl(RInv("P"), R("Q")),
		"A <= not B":                CDisj(C("A"), C("B")),
		"A <= not exists R-":        CDisj(C("A"), Some(RInv("R"))),
		"role: P <= not Q":          RDisj(R("P"), R("Q")),
		"exists R <= not exists S-": CDisj(Some(R("R")), Some(RInv("S"))),
	}
	for in, want := range cases {
		got, err := ParseAxiom(in)
		if err != nil {
			t.Errorf("ParseAxiom(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseAxiom(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseAxiomErrors(t *testing.T) {
	for _, bad := range []string{
		"A B",              // no arrow
		"not A <= B",       // negation on lhs
		"A <= ",            // empty rhs
		" <= B",            // empty lhs
		"exists  <= B",     // empty role
		"role: <= Q",       // empty role lhs
		"A <= exists R- -", // junk
	} {
		if _, err := ParseAxiom(bad); err == nil {
			t.Errorf("ParseAxiom(%q) should fail", bad)
		}
	}
}

func TestFormatAxiomRoundTrip(t *testing.T) {
	axioms := []Axiom{
		CIncl(C("A"), C("B")),
		CIncl(Some(RInv("R")), Some(R("S"))),
		CDisj(C("A"), Some(RInv("R"))),
		RIncl(R("P"), RInv("Q")),
		RDisj(RInv("P"), R("Q")),
	}
	for _, ax := range axioms {
		back, err := ParseAxiom(FormatAxiom(ax))
		if err != nil {
			t.Fatalf("round trip %v: %v", ax, err)
		}
		if back != ax {
			t.Errorf("round trip %v -> %q -> %v", ax, FormatAxiom(ax), back)
		}
	}
}

func TestTBoxVocabulary(t *testing.T) {
	kb := paperKB(t)
	if got := kb.T.ConceptNames(); !reflect.DeepEqual(got, []string{"PhDStudent", "Researcher"}) {
		t.Errorf("concepts = %v", got)
	}
	if got := kb.T.RoleNames(); !reflect.DeepEqual(got, []string{"supervisedBy", "worksWith"}) {
		t.Errorf("roles = %v", got)
	}
}

func TestTBoxConceptRoleClash(t *testing.T) {
	_, err := ParseTBoxString("A <= B\nrole: A <= Q")
	if err == nil {
		t.Fatal("name used as concept and role must be rejected")
	}
}

func TestEntailmentsExample2(t *testing.T) {
	kb := paperKB(t)
	// K ⊨ worksWith(Francois, Ioana) via (T4)+(A1)
	if !kb.EntailsRole(R("worksWith"), "Francois", "Ioana") {
		t.Error("worksWith(Francois, Ioana) should be entailed")
	}
	// K ⊨ PhDStudent(Damian) via (A2)+(T6)
	if !kb.EntailsConcept(C("PhDStudent"), "Damian") {
		t.Error("PhDStudent(Damian) should be entailed")
	}
	// K ⊨ worksWith(Francois, Damian) via (A3)+(T5)+(T4)
	if !kb.EntailsRole(R("worksWith"), "Francois", "Damian") {
		t.Error("worksWith(Francois, Damian) should be entailed")
	}
	// K ⊨ Researcher(Ioana) via (A1)+(T2)
	if !kb.EntailsConcept(C("Researcher"), "Ioana") {
		t.Error("Researcher(Ioana) should be entailed")
	}
	// Negative control: no one is entailed to be supervised by Damian.
	if kb.EntailsRole(R("supervisedBy"), "Ioana", "Damian") {
		t.Error("supervisedBy(Ioana, Damian) must not be entailed")
	}
	// Inverse-role entailment query.
	if !kb.EntailsRole(RInv("supervisedBy"), "Ioana", "Damian") {
		t.Error("supervisedBy⁻(Ioana, Damian) holds since supervisedBy(Damian, Ioana)")
	}
	// ∃-membership: Damian ∈ ∃supervisedBy.
	if !kb.EntailsConcept(Some(R("supervisedBy")), "Damian") {
		t.Error("Damian ∈ ∃supervisedBy")
	}
}

func TestConsistencyExample1(t *testing.T) {
	kb := paperKB(t)
	if err := kb.CheckConsistency(); err != nil {
		t.Fatalf("paper KB is T-consistent, got %v", err)
	}
}

func TestInconsistencyDetection(t *testing.T) {
	kb := paperKB(t)
	// Damian is a PhDStudent; making him a supervisor violates (T7).
	kb.A.Add(RoleAssertion("supervisedBy", "Alice", "Damian"))
	err := kb.CheckConsistency()
	if err == nil {
		t.Fatal("expected inconsistency")
	}
	inc, ok := err.(*Inconsistency)
	if !ok {
		t.Fatalf("want *Inconsistency, got %T", err)
	}
	if inc.Axiom.Kind != ConceptDisjointness {
		t.Errorf("violated axiom = %v", inc.Axiom)
	}
}

func TestRoleDisjointnessDetection(t *testing.T) {
	tb := MustParseTBox("role: teaches <= not takes")
	ab := NewABox()
	ab.Add(RoleAssertion("teaches", "a", "b"))
	ab.Add(RoleAssertion("takes", "a", "b"))
	if err := (KB{T: tb, A: ab}).CheckConsistency(); err == nil {
		t.Fatal("role disjointness violation must be detected")
	}
	// Different pair: consistent.
	ab2 := NewABox()
	ab2.Add(RoleAssertion("teaches", "a", "b"))
	ab2.Add(RoleAssertion("takes", "b", "a"))
	if err := (KB{T: tb, A: ab2}).CheckConsistency(); err != nil {
		t.Fatalf("swapped pair does not violate: %v", err)
	}
}

func TestEntailedDisjointnessExample2(t *testing.T) {
	// Example 2 bullet 1: ∃supervisedBy ⊑ ¬∃supervisedBy⁻ is entailed
	// by (T6)+(T7). We verify operationally: any ABox with x both
	// supervised and supervising is inconsistent.
	tb, err := ParseTBoxString(paperTBox)
	if err != nil {
		t.Fatal(err)
	}
	ab := NewABox()
	ab.Add(RoleAssertion("supervisedBy", "x", "y"))
	ab.Add(RoleAssertion("supervisedBy", "z", "x"))
	if err := (KB{T: tb, A: ab}).CheckConsistency(); err == nil {
		t.Fatal("x supervised and supervising must be inconsistent under T6+T7")
	}
}

// Example 7/8 fixture.
const runningTBox = `
Graduate <= exists supervisedBy
role: supervisedBy <= worksWith
`

func TestDepExample8(t *testing.T) {
	tb := MustParseTBox(runningTBox)
	tb.DeclareConcept("PhDStudent")
	got := tb.Dep("worksWith")
	want := map[string]bool{"worksWith": true, "supervisedBy": true, "Graduate": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dep(worksWith) = %v, want %v", got, want)
	}
	got = tb.Dep("supervisedBy")
	want = map[string]bool{"supervisedBy": true, "Graduate": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dep(supervisedBy) = %v, want %v", got, want)
	}
	if d := tb.Dep("PhDStudent"); len(d) != 1 || !d["PhDStudent"] {
		t.Errorf("dep(PhDStudent) = %v", d)
	}
	if d := tb.Dep("Graduate"); len(d) != 1 || !d["Graduate"] {
		t.Errorf("dep(Graduate) = %v", d)
	}
}

func TestDepShared(t *testing.T) {
	tb := MustParseTBox(runningTBox)
	tb.DeclareConcept("PhDStudent")
	if !tb.DepShared("worksWith", "supervisedBy") {
		t.Error("worksWith and supervisedBy share supervisedBy")
	}
	if tb.DepShared("PhDStudent", "worksWith") {
		t.Error("PhDStudent shares nothing with worksWith")
	}
	if !tb.DepShared("Graduate", "Graduate") {
		t.Error("every predicate shares with itself")
	}
}

func TestDepUnknownName(t *testing.T) {
	tb := MustParseTBox(runningTBox)
	if d := tb.Dep("Unknown"); len(d) != 1 || !d["Unknown"] {
		t.Errorf("dep of unknown name = %v", d)
	}
}

func TestABoxDedup(t *testing.T) {
	ab := NewABox()
	if !ab.Add(ConceptAssertion("A", "a")) {
		t.Error("first add must succeed")
	}
	if ab.Add(ConceptAssertion("A", "a")) {
		t.Error("duplicate add must report false")
	}
	if ab.Size() != 1 {
		t.Errorf("size = %d", ab.Size())
	}
}

func TestABoxIndividuals(t *testing.T) {
	ab := MustParseABox("R(b, a)\nA(c)")
	if got := ab.Individuals(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Individuals = %v", got)
	}
}

func TestParseAssertionErrors(t *testing.T) {
	for _, bad := range []string{"A", "A()", "R(a,b,c)", "(a)", "R(,b)"} {
		if _, err := ParseAssertion(bad); err == nil {
			t.Errorf("ParseAssertion(%q) should fail", bad)
		}
	}
}

func TestNegationFreeKBAlwaysConsistent(t *testing.T) {
	// Property (Section 2.1): in the absence of negation any KB is
	// consistent. Random positive TBoxes + random ABoxes.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		concepts := []string{"A", "B", "C", "D"}
		roles := []string{"P", "Q"}
		var axioms []Axiom
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			randConcept := func() Concept {
				switch r.Intn(3) {
				case 0:
					return C(concepts[r.Intn(len(concepts))])
				case 1:
					return Some(R(roles[r.Intn(len(roles))]))
				default:
					return Some(RInv(roles[r.Intn(len(roles))]))
				}
			}
			if r.Intn(4) == 0 {
				lr, rr := R(roles[r.Intn(len(roles))]), R(roles[r.Intn(len(roles))])
				if r.Intn(2) == 0 {
					rr = rr.Inverse()
				}
				axioms = append(axioms, RIncl(lr, rr))
			} else {
				axioms = append(axioms, CIncl(randConcept(), randConcept()))
			}
		}
		tb, err := NewTBox(axioms)
		if err != nil {
			return true // concept/role clash in random vocab; skip
		}
		ab := NewABox()
		inds := []string{"a", "b", "c"}
		for i := 0; i < 5; i++ {
			if r.Intn(2) == 0 {
				ab.Add(ConceptAssertion(concepts[r.Intn(len(concepts))], inds[r.Intn(len(inds))]))
			} else {
				ab.Add(RoleAssertion(roles[r.Intn(len(roles))], inds[r.Intn(len(inds))], inds[r.Intn(len(inds))]))
			}
		}
		return (KB{T: tb, A: ab}).CheckConsistency() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropDepContainsSelfAndMonotone(t *testing.T) {
	// dep(N) always contains N, and adding an axiom Y ⊑ X can only grow
	// dependency sets.
	tb1 := MustParseTBox("A <= B")
	tb2 := MustParseTBox("A <= B\nC <= A")
	for _, n := range []string{"A", "B", "C"} {
		d1, d2 := tb1.Dep(n), tb2.Dep(n)
		if !d1[n] || !d2[n] {
			t.Errorf("dep(%s) must contain itself", n)
		}
		for k := range d1 {
			if !d2[k] {
				t.Errorf("dep not monotone for %s: lost %s", n, k)
			}
		}
	}
	if !tb2.Dep("B")["C"] {
		t.Error("B depends on C transitively")
	}
}

func TestAxiomStrings(t *testing.T) {
	if CIncl(C("A"), Some(RInv("R"))).String() != "A ⊑ ∃R⁻" {
		t.Error("concept inclusion rendering")
	}
	if CDisj(C("A"), C("B")).String() != "A ⊑ ¬B" {
		t.Error("disjointness rendering")
	}
	if RIncl(R("P"), RInv("Q")).String() != "P ⊑ Q⁻" {
		t.Error("role inclusion rendering")
	}
	if RDisj(R("P"), R("Q")).String() != "P ⊑ ¬Q" {
		t.Error("role disjointness rendering")
	}
}

// DeclareConcept registers a concept name not mentioned in any axiom.
func (t *TBox) DeclareConcept(name string) { t.concepts[name] = true }

// IsConcept reports whether name is a declared concept.
func (t *TBox) IsConcept(name string) bool { return t.concepts[name] }

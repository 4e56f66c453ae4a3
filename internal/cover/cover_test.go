package cover

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dllite"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// Example 7 fixtures.
const runningTBox = `
Graduate <= exists supervisedBy
role: supervisedBy <= worksWith
`

var runningQuery = query.MustParseCQ(
	"q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)")

const paperTBox = `
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
PhDStudent <= not exists supervisedBy-
`

// TestExample5And6 reproduces the cover and fragment queries of
// Examples 5 and 6.
func TestExample5And6(t *testing.T) {
	q := query.MustParseCQ(
		"q(x, y) <- teachesTo(v, x), teachesTo(v, y), supervisedBy(x, w), supervisedBy(y, w)")
	c := MustSimple(q, [][]int{{0, 2}, {1, 3}})
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	f1 := c.FragmentQuery(0)
	// q|f1(x, v, w) ← teachesTo(v, x) ∧ supervisedBy(x, w)
	wantHead := []string{"x", "v", "w"}
	var gotHead []string
	for _, h := range f1.Head {
		gotHead = append(gotHead, h.Name)
	}
	if !reflect.DeepEqual(gotHead, wantHead) {
		t.Errorf("f1 head = %v, want %v", gotHead, wantHead)
	}
	if len(f1.Atoms) != 2 || f1.Atoms[0].Pred != "teachesTo" || f1.Atoms[1].Pred != "supervisedBy" {
		t.Errorf("f1 atoms = %v", f1.Atoms)
	}
	f2 := c.FragmentQuery(1)
	gotHead = nil
	for _, h := range f2.Head {
		gotHead = append(gotHead, h.Name)
	}
	if !reflect.DeepEqual(gotHead, []string{"y", "v", "w"}) {
		t.Errorf("f2 head = %v", gotHead)
	}
}

// TestExample7UnsafeCover: C1 = {{PhD, wW}, {sB}} is unsafe and its
// cover-based reformulation loses answers.
func TestExample7UnsafeCover(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	c1 := MustSimple(runningQuery, [][]int{{0, 1}, {2}})
	if c1.IsSafe(tb) {
		t.Fatal("C1 must be unsafe (worksWith and supervisedBy share deps)")
	}
	// Its JUCQ misses q3/q4: evaluating over Example 7's ABox gives ∅.
	r := reformulate.New(tb)
	j, err := c1.ReformulateJUCQ(r)
	if err != nil {
		t.Fatal(err)
	}
	ab := dllite.MustParseABox("PhDStudent(Damian)\nGraduate(Damian)")
	got := naive.EvalJUCQ(j, ab)
	if got.Size() != 0 {
		t.Fatalf("unsafe cover should lose the answer here, got %v", got.Sorted())
	}
	// Whereas the single-fragment cover (plain UCQ) finds Damian.
	u, err := reformulate.CQToUCQ(runningQuery, tb)
	if err != nil {
		t.Fatal(err)
	}
	if full := naive.EvalUCQ(u, ab); full.Size() != 1 {
		t.Fatalf("UCQ reformulation must find Damian, got %v", full.Sorted())
	}
}

// TestExample10RootCover: Croot of the running example is
// {{PhDStudent(x)}, {worksWith(x,y), supervisedBy(z,y)}}.
func TestExample10RootCover(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	root := RootCover(runningQuery, tb)
	if len(root.Frags) != 2 {
		t.Fatalf("Croot has %d fragments, want 2: %v", len(root.Frags), root)
	}
	if root.Frags[0].F != 0b001 || root.Frags[1].F != 0b110 {
		t.Errorf("Croot masks = %b, %b", root.Frags[0].F, root.Frags[1].F)
	}
	if !root.IsSafe(tb) {
		t.Error("Croot must be safe")
	}
	if !root.IsPartition() {
		t.Error("Croot must be a partition")
	}
}

// TestExample9SafeCoverAnswer: the C2-based JUCQ answers {Damian}.
func TestExample9SafeCoverAnswer(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	c2 := MustSimple(runningQuery, [][]int{{0}, {1, 2}})
	if !c2.IsSafe(tb) {
		t.Fatal("C2 must be safe")
	}
	r := reformulate.New(tb)
	j, err := c2.ReformulateJUCQ(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Subs) != 2 {
		t.Fatalf("JUCQ has %d subqueries", len(j.Subs))
	}
	// Paper: qUCQ1 has 1 disjunct (PhDStudent(x)), qUCQ2 has 4.
	if len(j.Subs[0].Disjuncts) != 1 {
		t.Errorf("fragment 1: %d disjuncts, want 1", len(j.Subs[0].Disjuncts))
	}
	if len(j.Subs[1].Disjuncts) != 4 {
		t.Errorf("fragment 2: %d disjuncts, want 4", len(j.Subs[1].Disjuncts))
	}
	ab := dllite.MustParseABox("PhDStudent(Damian)\nGraduate(Damian)")
	got := naive.EvalJUCQ(j, ab)
	if got.Size() != 1 || got.Sorted()[0][0] != "Damian" {
		t.Fatalf("answer = %v, want {Damian}", got.Sorted())
	}
}

// TestExample11GeneralizedCover: C3 = {f1‖f1, f2‖f0} is in Gq and its
// reformulation answers {Damian}.
func TestExample11GeneralizedCover(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	// atoms: 0=PhDStudent(x), 1=worksWith(x,y), 2=supervisedBy(z,y)
	c3 := Cover{Q: runningQuery, Frags: []Fragment{
		{F: 0b110, G: 0b110}, // f1‖f1
		{F: 0b011, G: 0b001}, // f2‖f0
	}}
	if err := c3.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c3.IsGeneralized() {
		t.Error("C3 is generalized")
	}
	if !c3.InGq(tb) {
		t.Fatal("C3 must be in Gq")
	}
	// Head checks (Example 11): both fragment queries have head (x).
	for k := 0; k < 2; k++ {
		fq := c3.FragmentQuery(k)
		if len(fq.Head) != 1 || fq.Head[0].Name != "x" {
			t.Errorf("fragment %d head = %v, want (x)", k, fq.Head)
		}
	}
	r := reformulate.New(tb)
	j, err := c3.ReformulateJUCQ(r)
	if err != nil {
		t.Fatal(err)
	}
	ab := dllite.MustParseABox("PhDStudent(Damian)\nGraduate(Damian)")
	got := naive.EvalJUCQ(j, ab)
	if got.Size() != 1 || got.Sorted()[0][0] != "Damian" {
		t.Fatalf("answer = %v, want {Damian}", got.Sorted())
	}
}

// TestSingleFragmentIsUCQ: the trivial cover reduces to the plain UCQ.
func TestSingleFragmentIsUCQ(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	c := SingleFragment(runningQuery)
	if !c.IsSafe(tb) {
		t.Fatal("single-fragment cover is always safe")
	}
	r := reformulate.New(tb)
	j, err := c.ReformulateJUCQ(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Subs) != 1 {
		t.Fatalf("want 1 subquery, got %d", len(j.Subs))
	}
	u, _ := reformulate.CQToUCQ(runningQuery, tb)
	if len(j.Subs[0].Disjuncts) != len(u.Disjuncts) {
		t.Errorf("single-fragment reformulation differs from UCQ: %d vs %d",
			len(j.Subs[0].Disjuncts), len(u.Disjuncts))
	}
}

// TestTheorem2FragmentsAreUnionsOfRoot: every enumerated safe cover's
// fragments are unions of Croot fragments.
func TestTheorem2FragmentsAreUnionsOfRoot(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ(
		"q(x) <- PhDStudent(x), worksWith(y, x), Researcher(y), teachesTo(y, z)")
	root := RootCover(q, tb)
	n := EnumerateSafeCovers(q, tb, 0, func(c Cover) bool {
		if !c.IsSafe(tb) {
			t.Errorf("enumerated cover not safe: %v", c)
		}
		for _, f := range c.Frags {
			// f.F must be a union of root fragments: every root fragment
			// is either fully inside or fully outside f.F.
			for _, rf := range root.Frags {
				inter := f.F & rf.F
				if inter != 0 && inter != rf.F {
					t.Errorf("fragment %b splits root fragment %b", f.F, rf.F)
				}
			}
		}
		return true
	})
	if n == 0 {
		t.Fatal("no covers enumerated")
	}
}

// TestLatticeSizeBellNumber: with no dependencies, |Lq| is the Bell
// number of the atom count (Section 5.1).
func TestLatticeSizeBellNumber(t *testing.T) {
	tb := dllite.MustParseTBox("Unrelated <= Thing")
	q := query.MustParseCQ("q(x) <- A(x), R(x, y), B(y)")
	if got := CountSafeCovers(q, tb, 0); got != 5 { // B3 = 5
		t.Errorf("|Lq| = %d, want Bell(3) = 5", got)
	}
	q4 := query.MustParseCQ("q(x) <- A(x), R(x, y), B(y), S(y, z)")
	if got := CountSafeCovers(q4, tb, 0); got != 15 { // B4 = 15
		t.Errorf("|Lq| = %d, want Bell(4) = 15", got)
	}
}

// TestLatticeCollapsesUnderDependencies: a dependency-rich TBox shrinks
// the lattice (Section 5.2 motivation).
func TestLatticeCollapsesUnderDependencies(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	// Croot of the running query has 2 fragments → |Lq| = Bell(2) = 2.
	if got := CountSafeCovers(runningQuery, tb, 0); got != 2 {
		t.Errorf("|Lq| = %d, want 2", got)
	}
}

// TestGqContainsLq: the generalized enumeration covers at least the
// safe covers, and every member passes InGq.
func TestGqContainsLq(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	lq := CountSafeCovers(runningQuery, tb, 0)
	seenSimple := 0
	gq := EnumerateGeneralizedCovers(runningQuery, tb, 0, func(c Cover) bool {
		if !c.InGq(tb) {
			t.Errorf("enumerated cover not in Gq: %v", c)
		}
		if !c.IsGeneralized() {
			seenSimple++
		}
		return true
	})
	if gq < lq {
		t.Errorf("|Gq| = %d < |Lq| = %d", gq, lq)
	}
	if seenSimple != lq {
		t.Errorf("Gq contains %d simple covers, want %d", seenSimple, lq)
	}
}

// TestEnumerationLimit: the limit short-circuits enumeration.
func TestEnumerationLimit(t *testing.T) {
	tb := dllite.MustParseTBox("Unrelated <= Thing")
	q := query.MustParseCQ("q(x) <- A(x), R(x, y), B(y), S(y, z), C(z)")
	if got := CountSafeCovers(q, tb, 7); got != 7 {
		t.Errorf("limited count = %d, want 7", got)
	}
	if got := CountGeneralizedCovers(q, tb, 9); got != 9 {
		t.Errorf("limited generalized count = %d, want 9", got)
	}
}

// TestUnionAndEnlargeMoves: GDL's moves preserve cover validity and Gq
// membership when applied from Croot.
func TestUnionAndEnlargeMoves(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	root := RootCover(runningQuery, tb)
	u := root.UnionFragments(0, 1)
	if len(u.Frags) != 1 {
		t.Fatalf("union left %d fragments", len(u.Frags))
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if !u.InGq(tb) {
		t.Error("union of safe cover fragments stays in Gq")
	}
	// Enlarge fragment 0 ({PhDStudent(x)}) with atom 1 (worksWith(x,y)).
	e, ok := root.EnlargeFragment(0, 1)
	if !ok {
		t.Fatal("enlarge must apply")
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if !e.InGq(tb) {
		t.Error("enlarged cover stays in Gq")
	}
	if _, ok := e.EnlargeFragment(0, 1); ok {
		t.Error("re-adding the same atom must report false")
	}
}

// TestValidateRejects: structural violations are caught.
func TestValidateRejects(t *testing.T) {
	q := query.MustParseCQ("q(x) <- A(x), R(x, y)")
	// Fragment included in another.
	bad := Cover{Q: q, Frags: []Fragment{Simple(0b11), Simple(0b01)}}
	if err := bad.Validate(); err == nil {
		t.Error("inclusion between fragments must be rejected")
	}
	// Atom not covered.
	bad = Cover{Q: q, Frags: []Fragment{Simple(0b01)}}
	if err := bad.Validate(); err == nil {
		t.Error("uncovered atom must be rejected")
	}
	// g ⊄ f.
	bad = Cover{Q: q, Frags: []Fragment{{F: 0b01, G: 0b11}, Simple(0b10)}}
	if err := bad.Validate(); err == nil {
		t.Error("g ⊄ f must be rejected")
	}
	// empty g.
	bad = Cover{Q: q, Frags: []Fragment{{F: 0b11, G: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty g must be rejected")
	}
}

// TestPropSafeCoverReformulationEquivalent is the Theorem 1 property:
// for every safe cover of the paper's Example 4 query, the cover-based
// JUCQ answers exactly the UCQ reformulation's answers, over random
// ABoxes.
func TestPropSafeCoverReformulationEquivalent(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	r := reformulate.New(tb)
	ucq := r.MustReformulate(q)

	var covers []Cover
	EnumerateSafeCovers(q, tb, 0, func(c Cover) bool {
		covers = append(covers, c)
		return true
	})
	if len(covers) == 0 {
		t.Fatal("no safe covers")
	}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		ab := randABox(rnd)
		want := naive.EvalUCQ(ucq, ab)
		for _, c := range covers {
			j, err := c.ReformulateJUCQ(r)
			if err != nil {
				return false
			}
			got := naive.EvalJUCQ(j, ab)
			if !naive.SameAnswers(got, want) {
				t.Logf("seed %d cover %v: got %v want %v", seed, c, got.Sorted(), want.Sorted())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropGeneralizedCoverReformulationEquivalent is the Theorem 3
// property over the running example: every cover in Gq yields the same
// answers as the UCQ reformulation, over random ABoxes.
func TestPropGeneralizedCoverReformulationEquivalent(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	r := reformulate.New(tb)
	ucq := r.MustReformulate(runningQuery)

	var covers []Cover
	EnumerateGeneralizedCovers(runningQuery, tb, 0, func(c Cover) bool {
		covers = append(covers, c)
		return true
	})
	if len(covers) < 2 {
		t.Fatalf("expected several generalized covers, got %d", len(covers))
	}
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		ab := randABox(rnd)
		want := naive.EvalUCQ(ucq, ab)
		for _, c := range covers {
			j, err := c.ReformulateJUCQ(r)
			if err != nil {
				return false
			}
			got := naive.EvalJUCQ(j, ab)
			if !naive.SameAnswers(got, want) {
				t.Logf("seed %d cover %v: got %v want %v", seed, c, got.Sorted(), want.Sorted())
				return false
			}
			// JUSCQ must agree too.
			js, err := c.ReformulateJUSCQ(r)
			if err != nil {
				return false
			}
			if !naive.SameAnswers(naive.EvalJUSCQ(js, ab), want) {
				t.Logf("seed %d cover %v: JUSCQ mismatch", seed, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randABox draws a small random ABox over the fixture vocabulary.
func randABox(r *rand.Rand) *dllite.ABox {
	ab := dllite.NewABox()
	inds := []string{"a", "b", "c", "d"}
	concepts := []string{"PhDStudent", "Researcher", "Graduate"}
	roles := []string{"worksWith", "supervisedBy"}
	n := 1 + r.Intn(10)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			ab.Add(dllite.ConceptAssertion(concepts[r.Intn(len(concepts))], inds[r.Intn(len(inds))]))
		} else {
			ab.Add(dllite.RoleAssertion(roles[r.Intn(len(roles))], inds[r.Intn(len(inds))], inds[r.Intn(len(inds))]))
		}
	}
	return ab
}

// TestExpandJUCQMatchesJoin: expanding a JUCQ gives the same answers as
// joining materialized fragments.
func TestExpandJUCQMatchesJoin(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	r := reformulate.New(tb)
	c2 := MustSimple(runningQuery, [][]int{{0}, {1, 2}})
	j, err := c2.ReformulateJUCQ(r)
	if err != nil {
		t.Fatal(err)
	}
	ab := dllite.MustParseABox(`
PhDStudent(Damian)
Graduate(Damian)
PhDStudent(Alice)
worksWith(Alice, Bob)
supervisedBy(Carl, Bob)
`)
	a1 := naive.EvalJUCQ(j, ab)
	a2 := naive.EvalUCQ(ExpandJUCQ(j), ab)
	if !naive.SameAnswers(a1, a2) {
		t.Fatalf("join %v vs expand %v", a1.Sorted(), a2.Sorted())
	}
}

// TestCoverKeyStable: keys identify covers independent of fragment order.
func TestCoverKeyStable(t *testing.T) {
	q := query.MustParseCQ("q(x) <- A(x), R(x, y)")
	c1 := Cover{Q: q, Frags: []Fragment{Simple(0b01), Simple(0b10)}}
	c2 := Cover{Q: q, Frags: []Fragment{Simple(0b10), Simple(0b01)}}
	if c1.Key() != c2.Key() {
		t.Error("keys must not depend on fragment order")
	}
	c3 := Cover{Q: q, Frags: []Fragment{{F: 0b11, G: 0b01}, Simple(0b10)}}
	if c1.Key() == c3.Key() {
		t.Error("generalized cover must have a different key")
	}
}

// TestCoverKeyFormat: the one-buffer Key is the string the search memo
// and the golden trajectories were recorded with — fragments as "F|G"
// in hex, sorted as strings (so "10|10" precedes "3|3"), ";"-joined.
func TestCoverKeyFormat(t *testing.T) {
	oldKey := func(c Cover) string {
		parts := make([]string, len(c.Frags))
		for i, f := range c.Frags {
			parts[i] = fmt.Sprintf("%x|%x", f.F, f.G)
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		c := Cover{}
		for k := rng.Intn(18); k >= 0; k-- {
			f := rng.Uint64() >> uint(rng.Intn(64))
			c.Frags = append(c.Frags, Fragment{F: f, G: f & rng.Uint64()})
		}
		if got, want := c.Key(), oldKey(c); got != want {
			t.Fatalf("key %q, want %q", got, want)
		}
	}
	if k := (Cover{Frags: []Fragment{Simple(0x3), Simple(0x10), {F: 0xc, G: 0x8}}}).Key(); k != "10|10;3|3;c|8" {
		t.Errorf("key = %q", k)
	}
}

// TestFragmentIDFixesTheFragmentQuery: the GDL moves leave the identity
// of every fragment they do not touch unchanged — that is what lets the
// search reuse its reformulation and subtree — and fragments with equal
// identities in different covers have identical queries, names included.
func TestFragmentIDFixesTheFragmentQuery(t *testing.T) {
	q := query.MustParseCQ("q(x) <- A(x), R(x, y), B(y), S(y, z), C(z)")
	root := MustSimple(q, [][]int{{0}, {1}, {2}, {3}, {4}})
	byID := map[FragmentID]query.CQ{}
	record := func(c Cover) {
		for k := range c.Frags {
			fq, id := c.FragmentQuery(k), c.FragmentID(k)
			if prev, ok := byID[id]; ok && !reflect.DeepEqual(prev, fq) {
				t.Errorf("ID %+v names both %s and %s", id, prev, fq)
			}
			byID[id] = fq
		}
	}
	record(root)
	union := root.UnionFragments(1, 2)
	record(union)
	for k, want := range map[int]int{0: 0, 2: 3, 3: 4} { // union's fragment k is root's fragment want
		if union.FragmentID(k) != root.FragmentID(want) {
			t.Errorf("union changed untouched fragment %d: %+v vs %+v", k, union.FragmentID(k), root.FragmentID(want))
		}
	}
	enlarged, ok := union.EnlargeFragment(0, 1)
	if !ok {
		t.Fatal("enlarge did not apply")
	}
	record(enlarged)
	for k := 1; k < len(enlarged.Frags); k++ {
		if enlarged.FragmentID(k) != union.FragmentID(k) {
			t.Errorf("enlarge changed untouched fragment %d", k)
		}
	}
	if enlarged.FragmentID(0) == union.FragmentID(0) {
		t.Error("enlarge must change the enlarged fragment's identity")
	}
	if n := root.FragmentQuery(3).Name; n != "q_f3" || union.FragmentQuery(2).Name != n {
		t.Errorf("fragment {S(y,z)} is named %s in Croot and %s after the union, want q_f3 in both",
			n, union.FragmentQuery(2).Name)
	}
}

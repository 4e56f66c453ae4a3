package query

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermString(t *testing.T) {
	if got := Var("x").String(); got != "x" {
		t.Errorf("Var string = %q", got)
	}
	if got := Cst("Damian").String(); got != "'Damian'" {
		t.Errorf("Cst string = %q", got)
	}
	if Var("x").Const || !Cst("a").Const {
		t.Error("Const flags wrong")
	}
}

func TestSubstitutionApplyChains(t *testing.T) {
	s := Substitution{"x": Var("y"), "y": Var("z")}
	if got := s.Apply(Var("x")); got != Var("z") {
		t.Errorf("chain resolution = %v, want z", got)
	}
	if got := s.Apply(Cst("c")); got != Cst("c") {
		t.Errorf("constants must be fixed points, got %v", got)
	}
	if got := s.Apply(Var("w")); got != Var("w") {
		t.Errorf("unmapped var must be unchanged, got %v", got)
	}
}

func TestUnifyBasics(t *testing.T) {
	a := RoleAtom("R", Var("x"), Var("y"))
	b := RoleAtom("R", Var("z"), Cst("c"))
	s := Unify(a, b)
	if s == nil {
		t.Fatal("expected unifier")
	}
	if s.Apply(Var("y")) != Cst("c") {
		t.Errorf("y should map to 'c', got %v", s.Apply(Var("y")))
	}
	if got := a.Subst(s); !got.Equal(b.Subst(s)) {
		t.Errorf("unified atoms differ: %v vs %v", got, b.Subst(s))
	}
}

func TestUnifyFailures(t *testing.T) {
	if Unify(ConceptAtom("A", Var("x")), ConceptAtom("B", Var("x"))) != nil {
		t.Error("different predicates must not unify")
	}
	if Unify(RoleAtom("R", Cst("a"), Var("x")), RoleAtom("R", Cst("b"), Var("y"))) != nil {
		t.Error("distinct constants must not unify")
	}
	if Unify(ConceptAtom("A", Var("x")), RoleAtom("A", Var("x"), Var("y"))) != nil {
		t.Error("different arities must not unify")
	}
}

func TestUnifySameVariableTwice(t *testing.T) {
	// R(x,x) vs R(a,b): x→a then x(=a) vs b fails.
	if Unify(RoleAtom("R", Var("x"), Var("x")), RoleAtom("R", Cst("a"), Cst("b"))) != nil {
		t.Error("R(x,x) should not unify with R(a,b)")
	}
	s := Unify(RoleAtom("R", Var("x"), Var("x")), RoleAtom("R", Var("u"), Cst("b")))
	if s == nil {
		t.Fatal("R(x,x) should unify with R(u,'b')")
	}
	if s.Apply(Var("x")) != Cst("b") || s.Apply(Var("u")) != Cst("b") {
		t.Errorf("both x and u must resolve to 'b': x=%v u=%v", s.Apply(Var("x")), s.Apply(Var("u")))
	}
}

func TestUnifyPreferKeepsHeadVar(t *testing.T) {
	// Paper footnote 3: unifying supervisedBy(x,y) with supervisedBy(z,y)
	// where x is the head variable must keep x as representative.
	head := func(v string) bool { return v == "x" }
	s := UnifyPrefer(RoleAtom("supervisedBy", Var("x"), Var("y")),
		RoleAtom("supervisedBy", Var("z"), Var("y")), head)
	if s == nil {
		t.Fatal("expected unifier")
	}
	if s.Apply(Var("z")) != Var("x") {
		t.Errorf("z must map to head var x, got %v", s.Apply(Var("z")))
	}
	if s.Apply(Var("x")) != Var("x") {
		t.Errorf("x must stay x, got %v", s.Apply(Var("x")))
	}
}

func TestParseCQ(t *testing.T) {
	q := MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	if q.Name != "q" || len(q.Head) != 1 || q.Head[0] != Var("x") {
		t.Fatalf("bad head: %v", q)
	}
	if len(q.Atoms) != 2 || q.Atoms[1].Pred != "worksWith" {
		t.Fatalf("bad atoms: %v", q)
	}
	if q.String() != "q(x) ← PhDStudent(x) ∧ worksWith(y, x)" {
		t.Errorf("String = %q", q.String())
	}
}

func TestParseCQConstants(t *testing.T) {
	q := MustParseCQ(`q(x) <- worksWith(x, 'Francois')`)
	if !q.Atoms[0].Args[1].Const || q.Atoms[0].Args[1].Name != "Francois" {
		t.Fatalf("constant not parsed: %v", q)
	}
}

func TestParseCQErrors(t *testing.T) {
	for _, bad := range []string{
		"q(x)",                       // no body
		"q(x) <- A(x,y,z)",           // arity 3
		"q(z) <- A(x)",               // head var not in body
		"q(x) <- A(x) garbage",       // trailing input
		"q('c') <- A(x)",             // constant in head
		"q(x <- A(x)",                // broken parens
		"q(x) <- worksWith(x,'oops)", // unterminated constant
	} {
		if _, err := ParseCQ(bad); err == nil {
			t.Errorf("ParseCQ(%q) should fail", bad)
		}
	}
}

func TestIsUnbound(t *testing.T) {
	q := MustParseCQ("q(x) <- R(x, y), S(x, z), T(z, w)")
	if q.IsUnbound("x") {
		t.Error("head var x must not be unbound")
	}
	if !q.IsUnbound("y") || !q.IsUnbound("w") {
		t.Error("y and w occur once and are not head vars")
	}
	if q.IsUnbound("z") {
		t.Error("z occurs twice")
	}
}

func TestIsConnected(t *testing.T) {
	if !MustParseCQ("q(x) <- A(x), R(x,y), B(y)").IsConnected() {
		t.Error("path query is connected")
	}
	if MustParseCQ("q(x) <- A(x), B(y), R(y,z)").IsConnected() {
		t.Error("cartesian product must not be connected")
	}
	if !MustParseCQ("q(x) <- A(x)").IsConnected() {
		t.Error("single atom connected")
	}
}

func TestCanonicalKeyInvariantUnderRenaming(t *testing.T) {
	q1 := MustParseCQ("q(x) <- R(x, y), S(y, z)")
	q2 := MustParseCQ("q(x) <- R(x, a), S(a, b)")
	if CanonicalKey(q1) != CanonicalKey(q2) {
		t.Errorf("renamed queries must share keys:\n%s\n%s", CanonicalKey(q1), CanonicalKey(q2))
	}
}

func TestCanonicalKeyInvariantUnderReordering(t *testing.T) {
	q1 := MustParseCQ("q(x) <- R(x, y), S(y, z)")
	q2 := MustParseCQ("q(x) <- S(y, z), R(x, y)")
	if CanonicalKey(q1) != CanonicalKey(q2) {
		t.Errorf("reordered queries must share keys")
	}
}

func TestCanonicalKeyDistinguishes(t *testing.T) {
	pairs := [][2]string{
		{"q(x) <- R(x, y), S(y, z)", "q(x) <- R(x, y), S(x, z)"},
		{"q(x) <- R(x, y)", "q(x) <- R(y, x)"},
		{"q(x) <- A(x)", "q(x) <- B(x)"},
		{"q(x) <- R(x, x)", "q(x) <- R(x, y)"},
		{"q(x) <- R(x, 'c')", "q(x) <- R(x, y)"},
		{"q(x, y) <- R(x, y)", "q(x, x) <- R(x, x)"},
	}
	for _, p := range pairs {
		if CanonicalKey(MustParseCQ(p[0])) == CanonicalKey(MustParseCQ(p[1])) {
			t.Errorf("keys must differ: %s vs %s", p[0], p[1])
		}
	}
}

func TestCanonicalKeyUnboundVars(t *testing.T) {
	// Two distinct once-occurring variables both become "_", but a shared
	// variable must not.
	q1 := MustParseCQ("q(x) <- R(x, y), S(x, z)")
	q2 := MustParseCQ("q(x) <- R(x, u), S(x, v)")
	if CanonicalKey(q1) != CanonicalKey(q2) {
		t.Error("unbound vars should be anonymous")
	}
	q3 := MustParseCQ("q(x) <- R(x, y), S(x, y)")
	if CanonicalKey(q1) == CanonicalKey(q3) {
		t.Error("shared var differs from two unbound vars")
	}
}

func TestContainment(t *testing.T) {
	// Paper footnote 3: q(x)←PhD(x),sB(x,y),sB(z,y) is equivalent to its
	// minimal form q(x)←PhD(x),sB(x,y) (map z↦x).
	q1 := MustParseCQ("q(x) <- PhDStudent(x), supervisedBy(x, y), supervisedBy(z, y)")
	q2 := MustParseCQ("q(x) <- PhDStudent(x), supervisedBy(x, y)")
	if !Equivalent(q1, q2) {
		t.Error("q1 and q2 are equivalent (footnote 3)")
	}
	// A genuinely strict containment:
	q3 := MustParseCQ("q(x) <- PhDStudent(x), supervisedBy(y, x)")
	q4 := MustParseCQ("q(x) <- PhDStudent(x)")
	if !ContainedIn(q3, q4) {
		t.Error("q3 ⊆ q4")
	}
	if ContainedIn(q4, q3) {
		t.Error("q4 ⊄ q3")
	}
}

func TestContainmentHeadRepetition(t *testing.T) {
	q1 := MustParseCQ("q(x, x) <- R(x, x)")
	q2 := MustParseCQ("q(x, y) <- R(x, y)")
	if !ContainedIn(q1, q2) {
		t.Error("q(x,x)←R(x,x) ⊆ q(x,y)←R(x,y)")
	}
	if ContainedIn(q2, q1) {
		t.Error("general pair query is not contained in the diagonal one")
	}
}

func TestContainmentWithConstants(t *testing.T) {
	q1 := MustParseCQ("q(x) <- R(x, 'c')")
	q2 := MustParseCQ("q(x) <- R(x, y)")
	if !ContainedIn(q1, q2) {
		t.Error("constant query contained in variable query")
	}
	if ContainedIn(q2, q1) {
		t.Error("variable query not contained in constant query")
	}

	// A head constant, as PerfectRef's reduce step leaves one, maps only
	// to itself: q(x) <- R(x, y), R('c', y) answers more than its
	// reduction q('c') <- R('c', y), which it contains. Parameters alike.
	for _, c := range []Term{Cst("c"), Param(0)} {
		x, y := Var("x"), Var("y")
		general := CQ{Head: []Term{x}, Atoms: []Atom{RoleAtom("R", x, y), RoleAtom("R", c, y)}}
		reduced := CQ{Head: []Term{c}, Atoms: []Atom{RoleAtom("R", c, y)}}
		if ContainedIn(general, reduced) {
			t.Errorf("%s: a query contained in its reduction", general)
		}
		if !ContainedIn(reduced, general) {
			t.Errorf("%s: the reduction not contained in the query", reduced)
		}
	}
}

func TestEquivalentModuloRedundancy(t *testing.T) {
	q1 := MustParseCQ("q(x) <- R(x, y), R(x, z)")
	q2 := MustParseCQ("q(x) <- R(x, y)")
	if !Equivalent(q1, q2) {
		t.Error("redundant atom does not change semantics")
	}
}

func TestMinimizeCQ(t *testing.T) {
	q := MustParseCQ("q(x) <- R(x, y), R(x, z), A(x)")
	m := MinimizeCQ(q)
	if len(m.Atoms) != 2 {
		t.Errorf("minimized to %d atoms, want 2: %v", len(m.Atoms), m)
	}
	if !Equivalent(m, q) {
		t.Error("minimization must preserve equivalence")
	}
}

func TestMinimizeCQKeepsHeadCoverage(t *testing.T) {
	q := MustParseCQ("q(x) <- A(x), R(y, z)")
	m := MinimizeCQ(q) // R(y,z) is a disconnected redundant-free atom; stays
	for _, h := range m.Head {
		if !m.bodyHasVar(h.Name) {
			t.Fatal("head var lost")
		}
	}
	if !Equivalent(m, q) {
		t.Error("must stay equivalent")
	}
}

func TestUCQDedupAndMinimize(t *testing.T) {
	u := UCQ{Disjuncts: []CQ{
		MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)"),
		MustParseCQ("q(x) <- PhDStudent(x), worksWith(z, x)"), // dup modulo renaming
		MustParseCQ("q(x) <- supervisedBy(x, y)"),
		MustParseCQ("q(x) <- supervisedBy(x, y), supervisedBy(z, y)"), // ⊆ previous
	}}
	d := u.Dedup()
	if len(d.Disjuncts) != 3 {
		t.Fatalf("dedup: got %d disjuncts, want 3", len(d.Disjuncts))
	}
	m := u.Minimize()
	if len(m.Disjuncts) != 2 {
		t.Fatalf("minimize: got %d disjuncts, want 2: %v", len(m.Disjuncts), m)
	}
}

func TestUCQMinimizeKeepsOneOfEquivalentPair(t *testing.T) {
	u := UCQ{Disjuncts: []CQ{
		MustParseCQ("q(x) <- R(x, y), R(x, z)"),
		MustParseCQ("q(x) <- R(x, y)"),
	}}
	m := u.Minimize()
	if len(m.Disjuncts) != 1 {
		t.Fatalf("want a single survivor, got %d", len(m.Disjuncts))
	}
}

func TestSCQExpand(t *testing.T) {
	s := SCQ{
		Name: "q",
		Head: []Term{Var("x")},
		Blocks: [][]Atom{
			{ConceptAtom("A", Var("x")), ConceptAtom("B", Var("x"))},
			{RoleAtom("R", Var("x"), Var("y")), RoleAtom("S", Var("x"), Var("y"))},
		},
	}
	u := s.Expand()
	if len(u.Disjuncts) != 4 {
		t.Fatalf("expand: got %d disjuncts, want 4", len(u.Disjuncts))
	}
	if s.NumChoices() != 4 {
		t.Errorf("NumChoices = %d", s.NumChoices())
	}
}

func TestFactorizeUCQRoundTrip(t *testing.T) {
	// A full cartesian family must factor into a single SCQ.
	u := UCQ{Disjuncts: []CQ{
		MustParseCQ("q(x) <- A(x), R(x,y)"),
		MustParseCQ("q(x) <- A(x), S(x,y)"),
		MustParseCQ("q(x) <- B(x), R(x,y)"),
		MustParseCQ("q(x) <- B(x), S(x,y)"),
	}}
	f := FactorizeUCQ(u)
	if len(f.Disjuncts) != 1 {
		t.Fatalf("want 1 SCQ, got %d: %v", len(f.Disjuncts), f)
	}
	back := f.Expand().Dedup()
	if len(back.Disjuncts) != 4 {
		t.Fatalf("round trip lost disjuncts: %d", len(back.Disjuncts))
	}
	for _, orig := range u.Disjuncts {
		found := false
		for _, d := range back.Disjuncts {
			if CanonicalKey(d) == CanonicalKey(orig) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("disjunct lost in factorization: %v", orig)
		}
	}
}

func TestFactorizeUCQPartialFamily(t *testing.T) {
	// Missing one combination: must NOT factor into a product.
	u := UCQ{Disjuncts: []CQ{
		MustParseCQ("q(x) <- A(x), R(x,y)"),
		MustParseCQ("q(x) <- A(x), S(x,y)"),
		MustParseCQ("q(x) <- B(x), R(x,y)"),
	}}
	f := FactorizeUCQ(u)
	total := 0
	for _, s := range f.Disjuncts {
		total += s.NumChoices()
	}
	if total != 3 {
		t.Fatalf("factorization changed semantics: %d choices, want 3", total)
	}
}

func TestFactorizeUCQMixedShapes(t *testing.T) {
	u := UCQ{Disjuncts: []CQ{
		MustParseCQ("q(x) <- A(x), R(x,y)"),
		MustParseCQ("q(x) <- B(x)"),
	}}
	f := FactorizeUCQ(u)
	back := f.Expand().Dedup()
	if len(back.Disjuncts) != 2 {
		t.Fatalf("mixed shapes must survive: got %d", len(back.Disjuncts))
	}
}

func TestJUCQString(t *testing.T) {
	j := JUCQ{
		Name: "q",
		Head: []Term{Var("x")},
		Subs: []UCQ{
			{Disjuncts: []CQ{MustParseCQ("f1(x) <- A(x)")}},
			{Disjuncts: []CQ{MustParseCQ("f2(x) <- R(x,y)")}},
		},
	}
	s := j.String()
	if !strings.Contains(s, "⋈") || !strings.Contains(s, "A(x)") {
		t.Errorf("JUCQ string looks wrong: %s", s)
	}
}

// --- property-based tests ---

// genCQ builds a small random CQ over a fixed vocabulary.
func genCQ(r *rand.Rand) CQ {
	preds1 := []string{"A", "B", "C"}
	preds2 := []string{"R", "S"}
	vars := []string{"x", "y", "z", "w"}
	n := 1 + r.Intn(4)
	atoms := make([]Atom, 0, n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			atoms = append(atoms, ConceptAtom(preds1[r.Intn(len(preds1))], Var(vars[r.Intn(len(vars))])))
		} else {
			atoms = append(atoms, RoleAtom(preds2[r.Intn(len(preds2))],
				Var(vars[r.Intn(len(vars))]), Var(vars[r.Intn(len(vars))])))
		}
	}
	// head: one var occurring in the body
	hv := atoms[0].Args[0]
	return CQ{Name: "q", Head: []Term{hv}, Atoms: atoms}
}

func TestPropContainmentReflexive(t *testing.T) {
	f := func(seed int64) bool {
		q := genCQ(rand.New(rand.NewSource(seed)))
		return ContainedIn(q, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropCanonicalKeyStableUnderShuffle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := genCQ(r)
		shuffled := q.Clone()
		r.Shuffle(len(shuffled.Atoms), func(i, j int) {
			shuffled.Atoms[i], shuffled.Atoms[j] = shuffled.Atoms[j], shuffled.Atoms[i]
		})
		return CanonicalKey(q) == CanonicalKey(shuffled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropMinimizeEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		q := genCQ(rand.New(rand.NewSource(seed)))
		m := MinimizeCQ(q)
		return Equivalent(m, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropFactorizePreservesDisjunctSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		u := UCQ{}
		for i := 0; i < n; i++ {
			u.Disjuncts = append(u.Disjuncts, genCQ(r))
		}
		u = u.Dedup()
		back := FactorizeUCQ(u).Expand().Dedup()
		if len(back.Disjuncts) < len(u.Disjuncts) {
			return false
		}
		keys := make(map[string]bool)
		for _, d := range back.Disjuncts {
			keys[CanonicalKey(d)] = true
		}
		for _, d := range u.Disjuncts {
			if !keys[CanonicalKey(d)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropSubstIdempotentOnConstants(t *testing.T) {
	f := func(name string) bool {
		if name == "" {
			return true
		}
		s := Substitution{"x": Var("y")}
		c := Cst(name)
		return s.Apply(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarsAndPreds(t *testing.T) {
	q := MustParseCQ("q(x) <- R(x, y), S(y, z), A(x)")
	if got := q.Vars(); !reflect.DeepEqual(got, []string{"x", "y", "z"}) {
		t.Errorf("Vars = %v", got)
	}
	if got := q.Preds(); !reflect.DeepEqual(got, []string{"A", "R", "S"}) {
		t.Errorf("Preds = %v", got)
	}
}

func TestDedupAtoms(t *testing.T) {
	q := MustParseCQ("q(x) <- A(x), A(x), R(x,y)")
	d := q.DedupAtoms()
	if len(d.Atoms) != 2 {
		t.Errorf("DedupAtoms left %d atoms", len(d.Atoms))
	}
}

// TestParameterize: each distinct constant becomes one parameter, in
// order of first occurrence; equal constants share one; Bind restores
// the query; and a query without constants is its own template, for
// free.
func TestParameterize(t *testing.T) {
	q := MustParseCQ("q(y) <- Person('a'), memberOf('a', y), worksFor(y, 'b')")
	tmpl, args := Parameterize(q)
	if want := []string{"a", "b"}; !reflect.DeepEqual(args, want) {
		t.Fatalf("args %q, want %q", args, want)
	}
	if got, want := tmpl.String(), "q(y) ← Person(?0) ∧ memberOf(?0, y) ∧ worksFor(y, ?1)"; got != want {
		t.Errorf("template %s, want %s", got, want)
	}
	if !reflect.DeepEqual(tmpl.Bind(args), q) {
		t.Errorf("Bind gives %s, want %s", tmpl.Bind(args), q)
	}
	if q.Atoms[0].Args[0] != Cst("a") {
		t.Error("Parameterize wrote to its input")
	}

	// Equal constants share a parameter; distinct ones do not, so the
	// two queries are different templates.
	same, _ := Parameterize(MustParseCQ("q(y) <- Person('a'), memberOf('a', y)"))
	distinct, _ := Parameterize(MustParseCQ("q(y) <- Person('a'), memberOf('b', y)"))
	other, _ := Parameterize(MustParseCQ("q(z) <- memberOf('c', z), Person('c')"))
	if CanonicalKey(same) == CanonicalKey(distinct) {
		t.Error("equal and distinct constants share a template")
	}
	if CanonicalKey(same) != CanonicalKey(other) {
		t.Errorf("isomorphic instances: keys %q and %q", CanonicalKey(same), CanonicalKey(other))
	}

	free := MustParseCQ("q(x) <- A(x), R(x, y)")
	if tmpl, args := Parameterize(free); args != nil || &tmpl.Atoms[0] != &free.Atoms[0] {
		t.Error("a query without constants is not its own template")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(50, func() { Parameterize(free) }); n != 0 {
			t.Errorf("Parameterize allocates %v times on a query without constants", n)
		}
	}
}

// TestParamNeverLooksLikeAConstant: no constant a query can carry
// equals a parameter, or renders like one in a canonical key — even
// one spelled like a parameter, or one whose quotes try to close its
// literal early.
func TestParamNeverLooksLikeAConstant(t *testing.T) {
	for _, c := range []string{"0", "?0", "'?0'", "?0'"} {
		if Param(0) == Cst(c) || Param(0).Bind(nil) == Cst(c) {
			t.Errorf("constant %q equals a parameter", c)
		}
		q := CQ{Head: []Term{Var("x")}, Atoms: []Atom{RoleAtom("R", Var("x"), Cst(c))}}
		p := CQ{Head: []Term{Var("x")}, Atoms: []Atom{RoleAtom("R", Var("x"), Param(0))}}
		if CanonicalKey(q) == CanonicalKey(p) {
			t.Errorf("constant %q: canonical key %q of a parameter", c, CanonicalKey(p))
		}
	}
	// A constant spelling out "u') & B(?0) & C('v" must not render as
	// the three atoms it spells.
	forged := MustParseCQ(`q(x) <- A(x, "u')&B(?0)&C('v")`)
	genuine := CQ{Head: []Term{Var("x")}, Atoms: []Atom{RoleAtom("A", Var("x"), Cst("u")), ConceptAtom("B", Param(0)), ConceptAtom("C", Cst("v"))}}
	if CanonicalKey(forged) == CanonicalKey(genuine) {
		t.Errorf("forged and genuine queries share the key %q", CanonicalKey(genuine))
	}
}

// Unify computes a most general unifier of atoms a and b, or nil if they
// do not unify. Terms are flat (no function symbols) so unification is a
// simple union-find-free pass. The returned substitution may contain
// variable-to-variable chains; Substitution.Apply resolves them.
func Unify(a, b Atom) Substitution {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil
	}
	s := make(Substitution)
	for i := range a.Args {
		x := s.Apply(a.Args[i])
		y := s.Apply(b.Args[i])
		switch {
		case x == y:
			// already equal under s
		case x.IsVar():
			s.Bind(x.Name, y)
		case y.IsVar():
			s.Bind(y.Name, x)
		default: // distinct constants
			return nil
		}
	}
	return s
}

// Equivalent reports mutual containment.
func Equivalent(q1, q2 CQ) bool {
	return ContainedIn(q1, q2) && ContainedIn(q2, q1)
}

// MinimizeCQ returns a core-like minimization of q: it repeatedly drops
// body atoms whose removal leaves an equivalent query. The result is
// equivalent to q. (Computing the exact core is NP-hard; greedy removal
// reaches a minimal — not necessarily minimum — equivalent subquery,
// which is what the paper's "minimal form" examples use.)
func MinimizeCQ(q CQ) CQ {
	cur := q.DedupAtoms()
	changed := true
	for changed {
		changed = false
		for i := 0; i < len(cur.Atoms); i++ {
			if len(cur.Atoms) == 1 {
				return cur
			}
			cand := cur.Clone()
			cand.Atoms = append(cand.Atoms[:i], cand.Atoms[i+1:]...)
			if !headCovered(cand) {
				continue
			}
			if ContainedIn(cand, cur) && ContainedIn(cur, cand) {
				cur = cand
				changed = true
				i--
			}
		}
	}
	return cur
}

// Preds returns the distinct predicate names used in the body, sorted.
func (q CQ) Preds() []string {
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		seen[a.Pred] = true
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// IsConnected reports whether the join graph of the body (atoms as
// nodes, shared variables as edges) is connected. The paper considers
// only connected queries (no cartesian products).
func (q CQ) IsConnected() bool {
	n := len(q.Atoms)
	if n <= 1 {
		return true
	}
	visited := make([]bool, n)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for j := 0; j < n; j++ {
			if !visited[j] && q.Atoms[i].SharesVar(q.Atoms[j]) {
				visited[j] = true
				count++
				stack = append(stack, j)
			}
		}
	}
	return count == n
}

func headCovered(q CQ) bool {
	for _, h := range q.Head {
		if !q.bodyHasVar(h.Name) {
			return false
		}
	}
	return true
}

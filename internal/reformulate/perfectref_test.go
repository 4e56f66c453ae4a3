package reformulate

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dllite"
	"repro/internal/query"
)

// Table 2 TBox.
const paperTBox = `
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
PhDStudent <= not exists supervisedBy-
`

// Example 7 TBox.
const runningTBox = `
Graduate <= exists supervisedBy
role: supervisedBy <= worksWith
`

func ucqKeys(u query.UCQ) map[string]bool {
	m := make(map[string]bool, len(u.Disjuncts))
	for _, d := range u.Disjuncts {
		m[query.CanonicalKey(d)] = true
	}
	return m
}

func containsCQ(t *testing.T, u query.UCQ, text string) bool {
	t.Helper()
	return ucqKeys(u)[query.CanonicalKey(query.MustParseCQ(text))]
}

// TestExample4 reproduces Table 5: the CQ-to-UCQ reformulation of
// q(x) ← PhDStudent(x) ∧ worksWith(y,x) has exactly the ten CQs q1–q10.
func TestExample4(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"q(x) <- PhDStudent(x), worksWith(y, x)",
		"q(x) <- PhDStudent(x), worksWith(x, y)",
		"q(x) <- PhDStudent(x), supervisedBy(y, x)",
		"q(x) <- PhDStudent(x), supervisedBy(x, y)",
		"q(x) <- supervisedBy(x, z), worksWith(y, x)",
		"q(x) <- supervisedBy(x, z), worksWith(x, y)",
		"q(x) <- supervisedBy(x, z), supervisedBy(y, x)",
		"q(x) <- supervisedBy(x, z), supervisedBy(x, y)",
		"q(x) <- supervisedBy(x, x)",
		"q(x) <- supervisedBy(x, y)",
	}
	if len(u.Disjuncts) != len(want) {
		for _, d := range u.Disjuncts {
			t.Logf("got: %v", d)
		}
		t.Fatalf("got %d disjuncts, want %d", len(u.Disjuncts), len(want))
	}
	for _, w := range want {
		if !containsCQ(t, u, w) {
			t.Errorf("missing disjunct %s", w)
		}
	}
	if query.CanonicalKey(u.Disjuncts[0]) != query.CanonicalKey(q) {
		t.Error("first disjunct must be the input query")
	}
}

// TestExample4Minimal reproduces Section 2.3: the minimal UCQ is
// q1 ∨ q2 ∨ q3 ∨ q10.
func TestExample4Minimal(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	m := u.Minimize()
	if len(m.Disjuncts) != 4 {
		t.Fatalf("minimal UCQ has %d disjuncts, want 4: %v", len(m.Disjuncts), m)
	}
	for _, w := range []string{
		"q(x) <- PhDStudent(x), worksWith(y, x)",
		"q(x) <- PhDStudent(x), worksWith(x, y)",
		"q(x) <- PhDStudent(x), supervisedBy(y, x)",
		"q(x) <- supervisedBy(x, y)",
	} {
		if !containsCQ(t, m, w) {
			t.Errorf("minimal UCQ missing %s", w)
		}
	}
}

// TestExample7 reproduces the running example reformulation (4 CQs).
func TestExample7(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)")
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)",
		"q(x) <- PhDStudent(x), supervisedBy(x, y), supervisedBy(z, y)",
		"q(x) <- PhDStudent(x), supervisedBy(x, y)",
		"q(x) <- PhDStudent(x), Graduate(x)",
	}
	if len(u.Disjuncts) != len(want) {
		for _, d := range u.Disjuncts {
			t.Logf("got: %v", d)
		}
		t.Fatalf("got %d disjuncts, want %d", len(u.Disjuncts), len(want))
	}
	for _, w := range want {
		if !containsCQ(t, u, w) {
			t.Errorf("missing disjunct %s", w)
		}
	}
}

// TestExample7Fragments reproduces the fragment reformulations of
// Example 7 (cover C1) and Example 9 (cover C2).
func TestExample7Fragments(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	// q1(x,y) ← PhDStudent(x) ∧ worksWith(x,y): head y blocks ∃-rules.
	u1, err := CQToUCQ(query.MustParseCQ("q1(x, y) <- PhDStudent(x), worksWith(x, y)"), tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(u1.Disjuncts) != 2 {
		t.Fatalf("q1 fragment: got %d disjuncts, want 2: %v", len(u1.Disjuncts), u1)
	}
	// q2(y) ← supervisedBy(z,y): no applicable constraint.
	u2, err := CQToUCQ(query.MustParseCQ("q2(y) <- supervisedBy(z, y)"), tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.Disjuncts) != 1 {
		t.Fatalf("q2 fragment: got %d disjuncts, want 1: %v", len(u2.Disjuncts), u2)
	}
	// Example 9's second fragment: qUCQ2(x) ← wW(x,y) ∧ sB(z,y) has 4.
	u3, err := CQToUCQ(query.MustParseCQ("f(x) <- worksWith(x, y), supervisedBy(z, y)"), tb)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"f(x) <- worksWith(x, y), supervisedBy(z, y)",
		"f(x) <- supervisedBy(x, y), supervisedBy(z, y)",
		"f(x) <- supervisedBy(x, y)",
		"f(x) <- Graduate(x)",
	}
	if len(u3.Disjuncts) != len(want) {
		for _, d := range u3.Disjuncts {
			t.Logf("got: %v", d)
		}
		t.Fatalf("Example 9 fragment: got %d disjuncts, want 4", len(u3.Disjuncts))
	}
	for _, w := range want {
		if !containsCQ(t, u3, w) {
			t.Errorf("missing %s", w)
		}
	}
}

// naive evaluation of a CQ over an ABox, used as an oracle.
func evalCQ(q query.CQ, ab *dllite.ABox) map[string]bool {
	results := make(map[string]bool)
	var rec func(i int, bind map[string]string)
	rec = func(i int, bind map[string]string) {
		if i == len(q.Atoms) {
			parts := make([]string, len(q.Head))
			for j, h := range q.Head {
				parts[j] = bind[h.Name]
			}
			results[strings.Join(parts, "\x00")] = true
			return
		}
		a := q.Atoms[i]
		match := func(t query.Term, val string) (map[string]string, bool) {
			if t.Const {
				if t.Name == val {
					return bind, true
				}
				return nil, false
			}
			if v, ok := bind[t.Name]; ok {
				if v == val {
					return bind, true
				}
				return nil, false
			}
			nb := make(map[string]string, len(bind)+1)
			for k, v := range bind {
				nb[k] = v
			}
			nb[t.Name] = val
			return nb, true
		}
		for _, as := range ab.Assertions {
			if as.Pred != a.Pred || (as.IsRole() != (a.Arity() == 2)) {
				continue
			}
			b1, ok := match(a.Args[0], as.S)
			if !ok {
				continue
			}
			if a.Arity() == 2 {
				b2, ok := matchWith(b1, a.Args[1], as.O)
				if !ok {
					continue
				}
				rec(i+1, b2)
			} else {
				rec(i+1, b1)
			}
		}
	}
	rec(0, map[string]string{})
	return results
}

func matchWith(bind map[string]string, t query.Term, val string) (map[string]string, bool) {
	if t.Const {
		return bind, t.Name == val
	}
	if v, ok := bind[t.Name]; ok {
		return bind, v == val
	}
	nb := make(map[string]string, len(bind)+1)
	for k, v := range bind {
		nb[k] = v
	}
	nb[t.Name] = val
	return nb, true
}

func evalUCQ(u query.UCQ, ab *dllite.ABox) map[string]bool {
	out := make(map[string]bool)
	for _, d := range u.Disjuncts {
		for k := range evalCQ(d, ab) {
			out[k] = true
		}
	}
	return out
}

// TestExample3Answer: evaluating the reformulation of Example 3's query
// over the paper's ABox yields {Damian}, while the plain query yields ∅.
func TestExample3Answer(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	ab := dllite.MustParseABox(`
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
`)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	if got := evalCQ(q, ab); len(got) != 0 {
		t.Fatalf("plain evaluation must be empty, got %v", got)
	}
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	got := evalUCQ(u, ab)
	if len(got) != 1 || !got["Damian"] {
		t.Fatalf("answer = %v, want {Damian}", got)
	}
	// The minimized UCQ must give the same answer.
	got = evalUCQ(u.Minimize(), ab)
	if len(got) != 1 || !got["Damian"] {
		t.Fatalf("minimized answer = %v, want {Damian}", got)
	}
}

// TestExample7Answer: the running example KB answers {Damian}.
func TestExample7Answer(t *testing.T) {
	tb := dllite.MustParseTBox(runningTBox)
	ab := dllite.MustParseABox("PhDStudent(Damian)\nGraduate(Damian)")
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(x, y), supervisedBy(z, y)")
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	got := evalUCQ(u, ab)
	if len(got) != 1 || !got["Damian"] {
		t.Fatalf("answer = %v, want {Damian}", got)
	}
}

// TestConstantsInQuery: constants survive reformulation.
func TestConstantsInQuery(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- worksWith(x, 'Francois')")
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	// worksWith(x,'Francois') ∨ worksWith('Francois',x) ∨
	// supervisedBy(x,'Francois') ∨ supervisedBy('Francois',x)... via T4/T5
	if len(u.Disjuncts) < 3 {
		t.Fatalf("expected role-hierarchy rewrites, got %v", u)
	}
	ab := dllite.MustParseABox("supervisedBy(Damian, Francois)")
	got := evalUCQ(u, ab)
	if !got["Damian"] {
		t.Fatalf("Damian works with Francois via supervisedBy ⊑ worksWith: %v", got)
	}
}

// TestBooleanQuery: zero-ary head works end to end.
func TestBooleanQuery(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.CQ{Name: "b", Atoms: []query.Atom{
		query.ConceptAtom("PhDStudent", query.Var("x")),
	}}
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	ab := dllite.MustParseABox("supervisedBy(Damian, Ioana)")
	got := evalUCQ(u, ab)
	if len(got) != 1 {
		t.Fatalf("boolean query should be true: %v", got)
	}
}

// TestUnboundnessBlocksExistsRule: ∃-rules must not fire on bound
// positions (the paper's q1(x,y) fragment illustrates this; here a
// direct check).
func TestUnboundnessBlocksExistsRule(t *testing.T) {
	tb := dllite.MustParseTBox("Graduate <= exists supervisedBy")
	// y is shared → bound → no rewrite of supervisedBy(x,y) to Graduate(x).
	q := query.MustParseCQ("q(x) <- supervisedBy(x, y), Tutor(y)")
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Disjuncts) != 1 {
		t.Fatalf("no rewrite expected, got %v", u)
	}
	// y unbound → rewrite fires.
	q2 := query.MustParseCQ("q(x) <- supervisedBy(x, y)")
	u2, err := CQToUCQ(q2, tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.Disjuncts) != 2 {
		t.Fatalf("want Graduate(x) rewrite, got %v", u2)
	}
}

// TestRoleInclusionOrientations covers all four LR/RR inversion combos.
func TestRoleInclusionOrientations(t *testing.T) {
	cases := []struct {
		axiom string
		want  string // rewriting of q(x,y) <- P(x,y)
	}{
		{"role: Q <= P", "q(x, y) <- Q(x, y)"},
		{"Q- <= P", "q(x, y) <- Q(y, x)"},
		{"Q <= P-", "q(x, y) <- Q(y, x)"},
		{"role: Q- <= P-", "q(x, y) <- Q(x, y)"},
	}
	for _, c := range cases {
		tb := dllite.MustParseTBox(c.axiom)
		u, err := CQToUCQ(query.MustParseCQ("q(x, y) <- P(x, y)"), tb)
		if err != nil {
			t.Fatal(err)
		}
		if len(u.Disjuncts) != 2 {
			t.Fatalf("%s: got %d disjuncts", c.axiom, len(u.Disjuncts))
		}
		if !containsCQ(t, u, c.want) {
			t.Errorf("%s: missing %s in %v", c.axiom, c.want, u)
		}
	}
}

// TestExistsHierarchyRewrites covers ∃R ⊑ ∃S and inverse variants
// (Table 3 rows 6–9).
func TestExistsHierarchyRewrites(t *testing.T) {
	cases := []struct {
		axiom string
		query string
		want  string
	}{
		{"exists Q <= exists P", "q(x) <- P(x, y)", "q(x) <- Q(x, y)"},
		{"exists Q- <= exists P", "q(x) <- P(x, y)", "q(x) <- Q(y, x)"},
		{"exists Q <= exists P-", "q(x) <- P(y, x)", "q(x) <- Q(x, y)"},
		{"exists Q- <= exists P-", "q(x) <- P(y, x)", "q(x) <- Q(y, x)"},
	}
	for _, c := range cases {
		tb := dllite.MustParseTBox(c.axiom)
		u, err := CQToUCQ(query.MustParseCQ(c.query), tb)
		if err != nil {
			t.Fatal(err)
		}
		if !containsCQ(t, u, c.want) {
			t.Errorf("%s on %s: missing %s, got %v", c.axiom, c.query, c.want, u)
		}
	}
}

// TestMemoization: repeated reformulation hits the memo.
func TestMemoization(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	r := New(tb)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	u1 := r.MustReformulate(q)
	u2 := r.MustReformulate(q)
	if len(u1.Disjuncts) != len(u2.Disjuncts) {
		t.Fatal("memoized result differs")
	}
	if len(r.memo) != 1 {
		t.Fatalf("memo size = %d", len(r.memo))
	}
}

// TestMaxQueriesGuard: the blowup guard trips.
func TestMaxQueriesGuard(t *testing.T) {
	// Chain of subclasses; reformulation of conjunction over several
	// atoms multiplies.
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		sb.WriteString("A")
		sb.WriteString(string(rune('a' + i)))
		sb.WriteString(" <= Top\n")
	}
	tb := dllite.MustParseTBox(sb.String())
	r := New(tb)
	r.MaxQueries = 10
	q := query.MustParseCQ("q(x) <- Top(x), Top(y), R(x, y)")
	if _, err := r.Reformulate(q); err == nil {
		t.Fatal("expected MaxQueries error")
	}
}

// TestCQToUSCQEquivalence: the USCQ expands back to the UCQ disjunct set.
func TestCQToUSCQEquivalence(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	u, err := CQToUCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	s, err := CQToUSCQ(q, tb)
	if err != nil {
		t.Fatal(err)
	}
	back := s.Expand().Dedup()
	if len(back.Disjuncts) != len(u.Dedup().Disjuncts) {
		t.Fatalf("USCQ expansion has %d disjuncts, UCQ has %d", len(back.Disjuncts), len(u.Dedup().Disjuncts))
	}
	keys := ucqKeys(back)
	for _, d := range u.Disjuncts {
		if !keys[query.CanonicalKey(d)] {
			t.Errorf("USCQ lost disjunct %v", d)
		}
	}
	// The factorized form should be no larger than the UCQ.
	if len(s.Disjuncts) > len(u.Disjuncts) {
		t.Errorf("USCQ has more SCQs (%d) than UCQ disjuncts (%d)", len(s.Disjuncts), len(u.Disjuncts))
	}
}

// randKB builds a small random DL-LiteR KB (positive axioms only).
func randKB(r *rand.Rand) (*dllite.TBox, *dllite.ABox) {
	concepts := []string{"A", "B", "C", "D"}
	roles := []string{"P", "Q"}
	randConcept := func() dllite.Concept {
		switch r.Intn(3) {
		case 0:
			return dllite.C(concepts[r.Intn(len(concepts))])
		case 1:
			return dllite.Some(dllite.R(roles[r.Intn(len(roles))]))
		default:
			return dllite.Some(dllite.RInv(roles[r.Intn(len(roles))]))
		}
	}
	var axioms []dllite.Axiom
	n := 1 + r.Intn(6)
	for i := 0; i < n; i++ {
		if r.Intn(4) == 0 {
			lr := dllite.R(roles[r.Intn(len(roles))])
			rr := dllite.R(roles[r.Intn(len(roles))])
			if r.Intn(2) == 0 {
				lr = lr.Inverse()
			}
			if r.Intn(2) == 0 {
				rr = rr.Inverse()
			}
			axioms = append(axioms, dllite.RIncl(lr, rr))
		} else {
			axioms = append(axioms, dllite.CIncl(randConcept(), randConcept()))
		}
	}
	tb := dllite.MustTBox(axioms)
	ab := dllite.NewABox()
	inds := []string{"a", "b", "c", "d"}
	m := 2 + r.Intn(8)
	for i := 0; i < m; i++ {
		if r.Intn(2) == 0 {
			ab.Add(dllite.ConceptAssertion(concepts[r.Intn(len(concepts))], inds[r.Intn(len(inds))]))
		} else {
			ab.Add(dllite.RoleAssertion(roles[r.Intn(len(roles))], inds[r.Intn(len(inds))], inds[r.Intn(len(inds))]))
		}
	}
	return tb, ab
}

// TestPropAtomicQueryMatchesSaturation cross-checks PerfectRef against
// the independent saturation-based entailment of package dllite:
// for random KBs, ans(reformulate(A(x))) over the explicit ABox equals
// the set of individuals with K ⊨ A(ind); same for roles.
func TestPropAtomicQueryMatchesSaturation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb, ab := randKB(r)
		kb := dllite.KB{T: tb, A: ab}
		// concept query
		q := query.MustParseCQ("q(x) <- A(x)")
		u, err := CQToUCQ(q, tb)
		if err != nil {
			return false
		}
		got := evalUCQ(u, ab)
		for _, ind := range ab.Individuals() {
			want := kb.EntailsConcept(dllite.C("A"), ind)
			if got[ind] != want {
				t.Logf("seed %d concept: ind=%s got=%v want=%v", seed, ind, got[ind], want)
				return false
			}
		}
		// role query
		qr := query.MustParseCQ("q(x, y) <- P(x, y)")
		ur, err := CQToUCQ(qr, tb)
		if err != nil {
			return false
		}
		gotR := evalUCQ(ur, ab)
		inds := ab.Individuals()
		for _, a := range inds {
			for _, b := range inds {
				want := kb.EntailsRole(dllite.R("P"), a, b)
				if gotR[a+"\x00"+b] != want {
					t.Logf("seed %d role: (%s,%s) got=%v want=%v", seed, a, b, gotR[a+"\x00"+b], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropReformulationGrowsAnswersMonotonically: every disjunct's
// answers are answers of the reformulated query, and the original
// query's plain answers are always included.
func TestPropReformulationContainsPlainAnswers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tb, ab := randKB(r)
		q := query.MustParseCQ("q(x) <- A(x), P(x, y)")
		u, err := CQToUCQ(q, tb)
		if err != nil {
			return false
		}
		plain := evalCQ(q, ab)
		all := evalUCQ(u, ab)
		for k := range plain {
			if !all[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDisjunctOrderIsDeterministic guards benchmark reproducibility.
func TestDisjunctOrderIsDeterministic(t *testing.T) {
	tb := dllite.MustParseTBox(paperTBox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	u1 := New(tb).MustReformulate(q)
	u2 := New(tb).MustReformulate(q)
	if len(u1.Disjuncts) != len(u2.Disjuncts) {
		t.Fatal("nondeterministic disjunct count")
	}
	var k1, k2 []string
	for i := range u1.Disjuncts {
		k1 = append(k1, query.CanonicalKey(u1.Disjuncts[i]))
		k2 = append(k2, query.CanonicalKey(u2.Disjuncts[i]))
	}
	sort.Strings(k1)
	sort.Strings(k2)
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatal("nondeterministic disjunct set")
		}
	}
}

// CQToUSCQ reformulates q into a USCQ: the UCQ reformulation compressed
// by exact cartesian factorization. The result is equivalent to the UCQ
// reformulation.
func CQToUSCQ(q query.CQ, t *dllite.TBox) (query.USCQ, error) {
	u, err := CQToUCQ(q, t)
	if err != nil {
		return query.USCQ{}, err
	}
	return query.FactorizeUCQ(u), nil
}

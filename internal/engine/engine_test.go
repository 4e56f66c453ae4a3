package engine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
)

func TestDictionaryRoundTrip(t *testing.T) {
	d := NewDictionary()
	a := d.Encode("alpha")
	b := d.Encode("beta")
	if a == b {
		t.Fatal("distinct strings share an id")
	}
	if d.Encode("alpha") != a {
		t.Fatal("re-encoding changed the id")
	}
	if d.Decode(a) != "alpha" || d.Decode(b) != "beta" {
		t.Fatal("decode mismatch")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("lookup of unknown string must fail")
	}
	if d.Size() != 2 {
		t.Fatalf("size = %d", d.Size())
	}
}

func TestPropDictionary(t *testing.T) {
	f := func(ss []string) bool {
		d := NewDictionary()
		ids := make(map[string]int64)
		for _, s := range ss {
			id := d.Encode(s)
			if prev, ok := ids[s]; ok && prev != id {
				return false
			}
			ids[s] = id
			if d.Decode(id) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func loadDB(t *testing.T, layout Layout, aboxText string) *DB {
	t.Helper()
	db := NewDB(layout)
	db.LoadABox(dllite.MustParseABox(aboxText))
	return db
}

const sampleABox = `
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
PhDStudent(Damian)
Researcher(Ioana)
Researcher(Francois)
`

func TestBasicEvaluationBothLayouts(t *testing.T) {
	for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
		db := loadDB(t, layout, sampleABox)
		if db.NumFacts() != 6 {
			t.Fatalf("%v: facts = %d", layout, db.NumFacts())
		}
		q := query.MustParseCQ("q(x) <- PhDStudent(x), supervisedBy(x, y), Researcher(y)")
		ans := EvaluateCQ(q, db, ProfilePostgres())
		if len(ans.Tuples) != 1 || ans.Tuples[0][0] != "Damian" {
			t.Fatalf("%v: answer = %v", layout, ans.Tuples)
		}
	}
}

func TestConstantsAndMissingTables(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	// Constant present.
	q := query.MustParseCQ("q(x) <- supervisedBy(x, 'Ioana')")
	ans := EvaluateCQ(q, db, ProfilePostgres())
	if len(ans.Tuples) != 1 || ans.Tuples[0][0] != "Damian" {
		t.Fatalf("answer = %v", ans.Tuples)
	}
	// Constant absent from the data: empty result, no panic.
	q = query.MustParseCQ("q(x) <- supervisedBy(x, 'Nobody')")
	if ans := EvaluateCQ(q, db, ProfilePostgres()); len(ans.Tuples) != 0 {
		t.Fatalf("expected empty, got %v", ans.Tuples)
	}
	// Unknown table: empty result.
	q = query.MustParseCQ("q(x) <- Unicorn(x)")
	if ans := EvaluateCQ(q, db, ProfilePostgres()); len(ans.Tuples) != 0 {
		t.Fatalf("expected empty, got %v", ans.Tuples)
	}
}

func TestRepeatedVariableAtom(t *testing.T) {
	db := loadDB(t, LayoutSimple, "R(a, a)\nR(a, b)\nR(b, b)")
	q := query.MustParseCQ("q(x) <- R(x, x)")
	ans := EvaluateCQ(q, db, ProfilePostgres())
	if len(ans.Tuples) != 2 {
		t.Fatalf("diagonal answer = %v", ans.Tuples)
	}
}

// randABoxText builds a random ABox over a small vocabulary.
func randABoxText(r *rand.Rand) string {
	concepts := []string{"A", "B", "PhDStudent", "Researcher"}
	roles := []string{"R", "S", "worksWith", "supervisedBy"}
	inds := []string{"a", "b", "c", "d", "e"}
	var sb strings.Builder
	n := 3 + r.Intn(25)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			sb.WriteString(concepts[r.Intn(len(concepts))])
			sb.WriteString("(" + inds[r.Intn(len(inds))] + ")\n")
		} else {
			sb.WriteString(roles[r.Intn(len(roles))])
			sb.WriteString("(" + inds[r.Intn(len(inds))] + ", " + inds[r.Intn(len(inds))] + ")\n")
		}
	}
	return sb.String()
}

// randQuery builds a random connected-ish CQ.
func randQuery(r *rand.Rand) query.CQ {
	concepts := []string{"A", "B", "PhDStudent", "Researcher"}
	roles := []string{"R", "S", "worksWith", "supervisedBy"}
	vars := []string{"x", "y", "z"}
	n := 1 + r.Intn(3)
	var atoms []query.Atom
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			atoms = append(atoms, query.ConceptAtom(concepts[r.Intn(len(concepts))], query.Var(vars[r.Intn(len(vars))])))
		} else {
			atoms = append(atoms, query.RoleAtom(roles[r.Intn(len(roles))],
				query.Var(vars[r.Intn(len(vars))]), query.Var(vars[r.Intn(len(vars))])))
		}
	}
	return query.CQ{Name: "q", Head: []query.Term{atoms[0].Args[0]}, Atoms: atoms}
}

func relToSet(rel *Relation, d *Dictionary) map[string]bool {
	out := make(map[string]bool, len(rel.Rows))
	for _, row := range rel.Rows {
		parts := make([]string, len(row))
		for i, id := range row {
			parts[i] = d.Decode(id)
		}
		out[strings.Join(parts, "\x00")] = true
	}
	return out
}

// tupleSet canonicalizes decoded answer tuples for set comparison.
func tupleSet(tuples [][]string) map[string]bool {
	out := make(map[string]bool, len(tuples))
	for _, tu := range tuples {
		out[strings.Join(tu, "\x00")] = true
	}
	return out
}

func naiveToSet(rel *naive.Relation) map[string]bool {
	out := make(map[string]bool, rel.Size())
	for k := range rel.Tuples {
		out[k] = true
	}
	return out
}

func sameSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestPropEngineMatchesNaiveCQ: the engine agrees with the reference
// evaluator on random CQs, data, layouts, and profiles.
func TestPropEngineMatchesNaiveCQ(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		text := randABoxText(r)
		ab := dllite.MustParseABox(text)
		q := randQuery(r)
		want := naiveToSet(naive.EvalCQ(q, ab))
		for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
			for _, prof := range []*Profile{ProfilePostgres(), ProfileDB2()} {
				db := NewDB(layout)
				db.LoadABox(ab)
				if !sameSets(tupleSet(EvaluateCQ(q, db, prof).Tuples), want) {
					t.Logf("seed=%d layout=%v prof=%s q=%v", seed, layout, prof.Name, q)
					t.Logf("abox:\n%s", text)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropEngineMatchesNaiveJUCQ: full reformulation pipeline — the
// engine's JUCQ answers match the naive evaluator's on random covers.
func TestPropEngineMatchesNaiveJUCQ(t *testing.T) {
	tb := dllite.MustParseTBox(`
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
`)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	ref := reformulate.New(tb)
	var covers []cover.Cover
	cover.EnumerateGeneralizedCovers(q, tb, 0, func(c cover.Cover) bool {
		covers = append(covers, c)
		return true
	})
	if len(covers) == 0 {
		t.Fatal("no covers")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		c := covers[r.Intn(len(covers))]
		j, err := c.ReformulateJUCQ(ref)
		if err != nil {
			return false
		}
		want := naiveToSet(naive.EvalJUCQ(j, ab))
		for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
			db := NewDB(layout)
			db.LoadABox(ab)
			if !sameSets(tupleSet(EvaluateJUCQ(j, db, ProfileDB2()).Tuples), want) {
				t.Logf("seed=%d layout=%v cover=%v", seed, layout, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropSCQMatchesExpansion: factorized SCQ evaluation equals the
// expanded UCQ evaluation.
func TestPropSCQMatchesExpansion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ab := dllite.MustParseABox(randABoxText(r))
		s := query.SCQ{
			Name: "q",
			Head: []query.Term{query.Var("x")},
			Blocks: [][]query.Atom{
				{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("PhDStudent", query.Var("x"))},
				{query.RoleAtom("R", query.Var("x"), query.Var("y")),
					query.RoleAtom("worksWith", query.Var("x"), query.Var("y"))},
			},
		}
		db := NewDB(LayoutSimple)
		db.LoadABox(ab)
		got := EvaluateUSCQ(query.USCQ{Name: "q", Disjuncts: []query.SCQ{s}}, db, ProfilePostgres())
		want := EvaluateUCQ(s.Expand(), db, ProfilePostgres())
		if !sameSets(tupleSet(got.Tuples), tupleSet(want.Tuples)) {
			t.Logf("seed=%d", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSamplingShortcutFlag: the Postgres profile costs a union of more
// than 64 CQs from its first 16 arms, extrapolated; DB2 costs every arm,
// and small unions are never sampled.
func TestSamplingShortcutFlag(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	var ds []query.CQ
	for i := 0; i < 100; i++ {
		d := query.MustParseCQ("q(x) <- PhDStudent(x)") // 1 row
		if i >= 16 {
			d = query.MustParseCQ("q(x) <- Researcher(x)") // 2 rows
		}
		ds = append(ds, d)
	}
	card := func(prof *Profile, n int) float64 {
		return NewBackend(db, prof).Estimate(plan.FromUCQ(query.UCQ{Disjuncts: ds[:n]})).Card
	}
	if got := card(ProfilePostgres(), 100); got != 100 {
		t.Errorf("postgres estimates %.1f rows, want the 16-arm sample scaled to 100", got)
	}
	if got := card(ProfileDB2(), 100); got != 16+84*2 {
		t.Errorf("db2 estimates %.1f rows, want every arm costed (184)", got)
	}
	if got := card(ProfilePostgres(), 20); got != 16+4*2 {
		t.Errorf("postgres estimates %.1f rows for 20 arms, want every arm costed (24)", got)
	}
}

func TestStatementSizeLimit(t *testing.T) {
	p := ProfileDB2()
	if err := p.CheckStatementSize(100); err != nil {
		t.Fatalf("small statement rejected: %v", err)
	}
	err := p.CheckStatementSize(2_247_118)
	if err == nil {
		t.Fatal("oversized statement must be rejected")
	}
	if !strings.Contains(err.Error(), "too long or too complex") {
		t.Errorf("error text = %q", err)
	}
	if err := ProfilePostgres().CheckStatementSize(50_000_000); err != nil {
		t.Errorf("postgres has no limit: %v", err)
	}
}

func TestPlanChoosesIndexAccess(t *testing.T) {
	// With a bound subject available, the planner should use the
	// forward index rather than a scan.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString("R(s" + itoa(i) + ", o" + itoa(i%7) + ")\n")
	}
	sb.WriteString("A(s3)\n")
	db := loadDB(t, LayoutSimple, sb.String())
	q := query.MustParseCQ("q(y) <- A(x), R(x, y)")
	p := PlanCQ(q, db, ProfilePostgres())
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
	if p.Q.Atoms[p.Steps[0].Atom].Pred != "A" {
		t.Errorf("planner should start from the small concept table, got %v", p)
	}
	if p.Steps[1].Access != AccessRoleFwd {
		t.Errorf("second step should be index-fwd, got %v", p.Steps[1].Access)
	}
	// Executing matches expectation.
	rel := Drain(CompileCQ(p, db, nil))
	rel.Distinct()
	if len(rel.Rows) != 1 {
		t.Fatalf("rows = %d", len(rel.Rows))
	}
}

func TestExplainStrings(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), supervisedBy(x, y)")
	p := PlanCQ(q, db, ProfilePostgres())
	if !strings.Contains(p.String(), "est cost") {
		t.Error("CQ explain should mention cost")
	}
	j := query.JUCQ{Name: "q", Head: q.Head, Subs: []query.UCQ{
		{Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- PhDStudent(x)")}},
		{Disjuncts: []query.CQ{query.MustParseCQ("f2(x) <- supervisedBy(x, y)")}},
	}}
	rr, err := compilePlan(t, db, ProfilePostgres(), plan.FromJUCQ(j)).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if text := rr.Explain.Text(); !strings.Contains(text, "join") || !strings.Contains(text, "est=") {
		t.Errorf("cover explain should show the fragment join with estimates:\n%s", text)
	}
}

func TestRDFLayoutCostsMore(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString("R(s" + itoa(i) + ", o" + itoa(i%31) + ")\n")
	}
	ab := dllite.MustParseABox(sb.String())
	q := query.MustParseCQ("q(x, y) <- R(x, y)")
	simple := NewDB(LayoutSimple)
	simple.LoadABox(ab)
	rdf := NewDB(LayoutRDF)
	rdf.LoadABox(ab)
	pS := PlanCQ(q, simple, ProfileDB2())
	pR := PlanCQ(q, rdf, ProfileDB2())
	if pR.EstCost <= pS.EstCost {
		t.Errorf("RDF layout must be estimated costlier: %.1f vs %.1f", pR.EstCost, pS.EstCost)
	}
	// Same answers on both layouts.
	a1 := EvaluateCQ(q, simple, ProfileDB2())
	a2 := EvaluateCQ(q, rdf, ProfileDB2())
	if len(a1.Tuples) != len(a2.Tuples) {
		t.Errorf("layouts disagree: %d vs %d tuples", len(a1.Tuples), len(a2.Tuples))
	}
}

func TestStatisticsValues(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	st := db.Stats()
	if st.CardConcept("PhDStudent") != 1 || st.CardConcept("Researcher") != 2 {
		t.Errorf("concept cards wrong: %v", st.ConceptCard)
	}
	if st.CardRole("supervisedBy") != 2 {
		t.Errorf("role card wrong: %v", st.RoleCard)
	}
	if st.RoleDistS["supervisedBy"] != 1 || st.RoleDistO["supervisedBy"] != 2 {
		t.Errorf("distinct counts wrong: %v / %v", st.RoleDistS, st.RoleDistO)
	}
	if st.TotalFacts != 6 {
		t.Errorf("total facts = %d", st.TotalFacts)
	}
}

func TestHashJoinNoCommonColumns(t *testing.T) {
	l := &Relation{Schema: []string{"x"}, Rows: [][]int64{{1}, {2}}}
	r := &Relation{Schema: []string{"y"}, Rows: [][]int64{{7}, {8}, {9}}}
	j := HashJoin(l, r)
	if len(j.Rows) != 6 {
		t.Errorf("cartesian join = %d rows, want 6", len(j.Rows))
	}
	if len(j.Schema) != 2 {
		t.Errorf("schema = %v", j.Schema)
	}
}

func TestHashJoinSharedColumn(t *testing.T) {
	l := &Relation{Schema: []string{"x", "y"}, Rows: [][]int64{{1, 10}, {2, 20}}}
	r := &Relation{Schema: []string{"y", "z"}, Rows: [][]int64{{10, 100}, {10, 101}, {30, 300}}}
	j := HashJoin(l, r)
	if len(j.Rows) != 2 {
		t.Errorf("join = %d rows, want 2", len(j.Rows))
	}
	if len(j.Schema) != 3 {
		t.Errorf("schema = %v", j.Schema)
	}
}

func TestRelationDistinct(t *testing.T) {
	r := &Relation{Schema: []string{"x"}, Rows: [][]int64{{1}, {1}, {2}}}
	r.Distinct()
	if len(r.Rows) != 2 {
		t.Errorf("distinct = %d rows", len(r.Rows))
	}
}

func TestRDFOverflowSlots(t *testing.T) {
	// More predicates than slots: overflow chains must still work.
	var sb strings.Builder
	for i := 0; i < DefaultRDFSlots+5; i++ {
		sb.WriteString("P" + itoa(i) + "(e, o" + itoa(i) + ")\n")
	}
	db := loadDB(t, LayoutRDF, sb.String())
	for i := 0; i < DefaultRDFSlots+5; i++ {
		q := query.MustParseCQ("q(y) <- P" + itoa(i) + "(x, y)")
		ans := EvaluateCQ(q, db, ProfileDB2())
		if len(ans.Tuples) != 1 || ans.Tuples[0][0] != "o"+itoa(i) {
			t.Fatalf("predicate P%d lost in overflow: %v", i, ans.Tuples)
		}
	}
}

func TestStatsInvalidatedByUpdates(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	before := db.Stats().TotalFacts
	db.AddConceptFact("Researcher", "NewPerson")
	db.Finalize()
	after := db.Stats().TotalFacts
	if after != before+1 {
		t.Errorf("stats not refreshed: %d -> %d", before, after)
	}
}

func TestJUSCQEngineMatchesNaive(t *testing.T) {
	tb := dllite.MustParseTBox(`
PhDStudent <= Researcher
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
`)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	ref := reformulate.New(tb)
	c := cover.RootCover(q, tb)
	js, err := c.ReformulateJUSCQ(ref)
	if err != nil {
		t.Fatal(err)
	}
	ab := dllite.MustParseABox(sampleABox)
	want := naive.EvalJUSCQ(js, ab)
	db := NewDB(LayoutSimple)
	db.LoadABox(ab)
	ans := EvaluateJUSCQ(js, db, ProfileDB2())
	if !sameSets(tupleSet(ans.Tuples), naiveToSet(want)) {
		t.Fatalf("engine JUSCQ %v vs naive %v", ans.Tuples, want.Sorted())
	}
}

package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/query"
)

const paperTBox = `
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
PhDStudent <= not exists supervisedBy-
`

const paperABox = `
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
`

func answerer(t *testing.T, layout engine.Layout, prof *engine.Profile) *Answerer {
	t.Helper()
	tb := dllite.MustParseTBox(paperTBox)
	db := engine.NewDB(layout)
	db.LoadABox(dllite.MustParseABox(paperABox))
	return New(tb, db, prof)
}

// TestAllStrategiesAgreeOnExample3: every strategy answers {Damian} to
// the paper's Example 3 query, on both layouts.
func TestAllStrategiesAgreeOnExample3(t *testing.T) {
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	for _, layout := range []engine.Layout{engine.LayoutSimple, engine.LayoutRDF} {
		a := answerer(t, layout, engine.ProfilePostgres())
		for _, s := range Strategies() {
			res, err := a.Answer(q, s)
			if err != nil {
				t.Fatalf("%v/%s: %v", layout, s, err)
			}
			if len(res.Tuples) != 1 || res.Tuples[0][0] != "Damian" {
				t.Errorf("%v/%s: answer = %v, want [Damian]", layout, s, res.Tuples)
			}
			if res.SQLSize <= 0 {
				t.Errorf("%v/%s: SQL not sized", layout, s)
			}
			if res.NumFragments == 0 {
				t.Errorf("%v/%s: fragments not reported", layout, s)
			}
		}
	}
}

// TestUCQMatchesPaperSizes: the UCQ strategy reports the Table 5 size.
func TestUCQMatchesPaperSizes(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	res, err := a.Answer(q, StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDisjuncts != 10 {
		t.Errorf("UCQ has %d disjuncts, want 10 (Table 5)", res.NumDisjuncts)
	}
	if res.NumFragments != 1 {
		t.Errorf("UCQ uses %d fragments", res.NumFragments)
	}
}

// TestStatementTooLong: an artificially tiny limit turns answers into
// the DB2 failure mode, with the partial Result still describing the
// attempted statement.
func TestStatementTooLong(t *testing.T) {
	prof := engine.ProfileDB2()
	prof.MaxStatementBytes = 64
	a := answerer(t, engine.LayoutSimple, prof)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	res, err := a.Answer(q, StrategyUCQ)
	if err == nil {
		t.Fatal("expected statement-too-long failure")
	}
	var tooLong *engine.StatementTooLongError
	if !errors.As(err, &tooLong) {
		t.Fatalf("error type = %T", err)
	}
	if res == nil || res.SQLSize <= 64 {
		t.Error("partial result must report the statement size")
	}
}

// TestConsistencyCheck: the paper KB is consistent; adding a
// supervising PhD student violates (T7).
func TestConsistencyCheck(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfileDB2())
	v, err := a.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("paper KB must be consistent, got %v", v)
	}
	// Damian supervises someone → he is in ∃supervisedBy⁻, but he is a
	// PhDStudent (entailed): violation of (T7).
	tb := dllite.MustParseTBox(paperTBox)
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox(paperABox + "supervisedBy(Alice, Damian)\n"))
	a2 := New(tb, db, engine.ProfileDB2())
	v, err = a2.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		t.Fatal("violation must be detected through reformulation")
	}
	if v[0].Axiom.Kind != dllite.ConceptDisjointness {
		t.Errorf("violated axiom = %v", v[0].Axiom)
	}
	if len(v[0].Witness) != 1 || v[0].Witness[0] != "Damian" {
		t.Errorf("witness = %v, want [Damian]", v[0].Witness)
	}
}

// TestRoleDisjointnessViaReformulation.
func TestRoleDisjointnessViaReformulation(t *testing.T) {
	tb := dllite.MustParseTBox("role: teaches <= not takes\nrole: mentors <= teaches")
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox("mentors(a, b)\ntakes(a, b)"))
	a := New(tb, db, engine.ProfilePostgres())
	v, err := a.CheckConsistency()
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 1 {
		t.Fatalf("want 1 violation (mentors ⊑ teaches ⊑ ¬takes), got %v", v)
	}
}

// TestCompareStrategies: per-strategy errors are isolated.
func TestCompareStrategies(t *testing.T) {
	prof := engine.ProfileDB2()
	prof.MaxStatementBytes = 700 // UCQ SQL exceeds this; Croot fragments too? keep loose
	a := answerer(t, engine.LayoutSimple, prof)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	results, errs := a.CompareStrategies(q, []Strategy{StrategyUCQ, StrategyCroot})
	if len(results) != 2 || len(errs) != 2 {
		t.Fatal("shape mismatch")
	}
	if errs[0] == nil {
		t.Error("UCQ should exceed the tiny limit")
	}
}

// TestUnknownStrategy.
func TestUnknownStrategy(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	if _, err := a.Answer(query.MustParseCQ("q(x) <- PhDStudent(x)"), Strategy("bogus")); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

// TestGDLReportsSearch: search metadata present for GDL strategies.
func TestGDLReportsSearch(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	res, err := a.Answer(q, StrategyGDLExt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Search == nil || res.Search.ExploredLq+res.Search.ExploredGq == 0 {
		t.Error("GDL must report explored covers")
	}
	if !strings.HasPrefix(string(res.Strategy), "gdl") {
		t.Error("strategy label wrong")
	}
}

// TestUSCQSmallerSQL: the factorized reformulation's SQL is never
// larger than the UCQ's on the same query.
func TestUSCQSmallerSQL(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	ucq, err := a.Answer(q, StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	uscq, err := a.Answer(q, StrategyUSCQ)
	if err != nil {
		t.Fatal(err)
	}
	if uscq.NumDisjuncts > ucq.NumDisjuncts {
		t.Errorf("USCQ has more disjuncts (%d) than UCQ (%d)", uscq.NumDisjuncts, ucq.NumDisjuncts)
	}
}

package lubm

import (
	"testing"

	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/reformulate"
)

// TestTBoxShape asserts the paper's vocabulary sizes (Section 6.1):
// "The TBox consists of 34 roles, 128 concepts and 212 constraints."
func TestTBoxShape(t *testing.T) {
	tb := TBox()
	if got := len(tb.ConceptNames()); got != 128 {
		t.Errorf("concepts = %d, want 128", got)
	}
	if got := len(tb.RoleNames()); got != 34 {
		t.Errorf("roles = %d, want 34", got)
	}
	if got := tb.NumConstraints(); got != 212 {
		t.Errorf("constraints = %d, want 212", got)
	}
}

func TestTBoxConsistentGeneration(t *testing.T) {
	tb := TBox()
	ab := GenerateABox(Config{Universities: 1, Seed: 7})
	kb := dllite.KB{T: tb, A: ab}
	if err := kb.CheckConsistency(); err != nil {
		t.Fatalf("generated data must be T-consistent: %v", err)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := GenerateABox(Config{Universities: 2, Seed: 42})
	b := GenerateABox(Config{Universities: 2, Seed: 42})
	if a.Size() != b.Size() {
		t.Fatalf("sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Assertions {
		if a.Assertions[i] != b.Assertions[i] {
			t.Fatalf("fact %d differs", i)
		}
	}
	c := GenerateABox(Config{Universities: 2, Seed: 43})
	if c.Size() == 0 {
		t.Fatal("empty generation")
	}
}

func TestGeneratorScales(t *testing.T) {
	s1 := &CountingSink{}
	Generate(Config{Universities: 1, Seed: 1}, s1)
	s4 := &CountingSink{}
	Generate(Config{Universities: 4, Seed: 1}, s4)
	if s4.Total() < 3*s1.Total() {
		t.Errorf("4 universities should be ~4x bigger: %d vs %d", s4.Total(), s1.Total())
	}
	if s1.Total() < 500 {
		t.Errorf("one university should exceed 500 facts, got %d", s1.Total())
	}
}

// TestWorkloadShape checks the Section 6.1 workload parameters: 13 CQs,
// 2–10 atoms, average ≈5.8, and UCQ reformulation sizes in the tens to
// hundreds (the paper spans 35–667, average 290).
func TestWorkloadShape(t *testing.T) {
	tb := TBox()
	qs := Queries()
	if len(qs) != 13 {
		t.Fatalf("want 13 queries, got %d", len(qs))
	}
	ref := reformulate.New(tb)
	totalAtoms := 0
	minSize, maxSize := 1<<30, 0
	for _, q := range qs {
		n := len(q.Atoms)
		totalAtoms += n
		if n < 2 || n > 10 {
			t.Errorf("%s has %d atoms; workload range is 2–10", q.Name, n)
		}
		u, err := ref.Reformulate(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		size := len(u.Disjuncts)
		t.Logf("%s: %d atoms, UCQ size %d", q.Name, n, size)
		if size < minSize {
			minSize = size
		}
		if size > maxSize {
			maxSize = size
		}
		if size < 10 || size > 900 {
			t.Errorf("%s: UCQ size %d outside workload band [10,900]", q.Name, size)
		}
	}
	avg := float64(totalAtoms) / float64(len(qs))
	if avg < 4.5 || avg > 7 {
		t.Errorf("average atoms = %.2f, want ≈5.8", avg)
	}
	if maxSize < 300 {
		t.Errorf("largest reformulation is %d; want hundreds like the paper's 667", maxSize)
	}
	if minSize > 60 {
		t.Errorf("smallest reformulation is %d; want tens like the paper's 35", minSize)
	}
}

// TestStarQueriesShape: A3–A6 are prefixes of Q1 and their root covers
// fragment completely (so |Gq| explodes with the atom count, Table 6).
func TestStarQueriesShape(t *testing.T) {
	tb := TBox()
	stars := StarQueries()
	if len(stars) != 4 {
		t.Fatalf("want A3..A6")
	}
	for i, q := range stars {
		want := i + 3
		if len(q.Atoms) != want {
			t.Errorf("%s has %d atoms, want %d", q.Name, len(q.Atoms), want)
		}
		root := cover.RootCover(q, tb)
		if len(root.Frags) != want {
			t.Errorf("%s root cover has %d fragments, want %d (independent predicates)",
				q.Name, len(root.Frags), want)
		}
	}
	// Table 6 shape: |Lq| grows as the Bell number, |Gq| much faster.
	a5 := stars[2]
	lq := cover.CountSafeCovers(a5, tb, 0)
	if lq != 52 { // Bell(5)
		t.Errorf("|Lq(A5)| = %d, want 52", lq)
	}
	gq := cover.CountGeneralizedCovers(a5, tb, 30000)
	if gq <= lq*10 {
		t.Errorf("|Gq(A5)| = %d should dwarf |Lq| = %d", gq, lq)
	}
	a6 := stars[3]
	gq6 := cover.CountGeneralizedCovers(a6, tb, 20003)
	if gq6 != 20003 {
		t.Errorf("|Gq(A6)| should exceed the 20003 cutoff, got %d", gq6)
	}
}

// TestDepStructure spot-checks the dependency sets that drive safety.
func TestDepStructure(t *testing.T) {
	tb := TBox()
	if !tb.DepShared("worksWith", "supervisedBy") {
		t.Error("worksWith must depend on supervisedBy")
	}
	if !tb.DepShared("memberOf", "worksFor") {
		t.Error("memberOf must depend on worksFor")
	}
	if tb.DepShared("attends", "researchInterest") {
		t.Error("attends and researchInterest must be independent")
	}
	if !tb.Dep("Person")["PhDStudent"] {
		t.Error("Person depends on PhDStudent (subclass chain)")
	}
	if !tb.Dep("degreeFrom")["hasAlumnus"] {
		t.Error("degreeFrom depends on hasAlumnus (inverse subrole)")
	}
}

// TestEveryQueryHasAnswers guards generator/workload drift: each
// workload query must return at least one certain answer on a
// moderately sized generated database (otherwise a figure would
// silently measure empty evaluations).
func TestEveryQueryHasAnswers(t *testing.T) {
	tb := TBox()
	db := engine.NewDB(engine.LayoutSimple)
	Generate(Config{Universities: 4, Seed: 1}, db)
	db.Finalize()
	ref := reformulate.New(tb)
	for _, q := range Queries() {
		u, err := ref.Reformulate(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		ans := engine.EvaluateUCQ(u, db, engine.ProfilePostgres())
		if len(ans.Tuples) == 0 {
			t.Errorf("%s: zero answers on generated data", q.Name)
		}
	}
}

// CountingSink counts facts (used to size datasets).
type CountingSink struct {
	Concepts, Roles int
	Inner           Sink
}

// AddConceptFact counts and forwards.
func (c *CountingSink) AddConceptFact(concept, ind string) {
	c.Concepts++
	if c.Inner != nil {
		c.Inner.AddConceptFact(concept, ind)
	}
}

// AddRoleFact counts and forwards.
func (c *CountingSink) AddRoleFact(role, s, o string) {
	c.Roles++
	if c.Inner != nil {
		c.Inner.AddRoleFact(role, s, o)
	}
}

// Total returns the number of generated facts.
func (c *CountingSink) Total() int { return c.Concepts + c.Roles }

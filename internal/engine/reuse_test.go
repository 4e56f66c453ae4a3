package engine_test

// Run reuse: Compiled.Run re-opens the operator tree a previous run
// left in its pool. A reused tree must answer, and explain, exactly as
// a freshly built one; its Open must read the database as it is now —
// the tables, the ones a write created since the build included, and
// the dictionary ids of its constants; and it must never serve a
// worker budget it was not built for, the one thing its build fixes.

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
)

// cqPlan lowers one CQ to a plan tree.
func cqPlan(cq string) *plan.Node {
	q := query.MustParseCQ(cq)
	return plan.FromUCQ(query.UCQ{Name: q.Name, Disjuncts: []query.CQ{q}})
}

// runRows runs c sequentially and returns its answer count.
func runRows(t *testing.T, c *engine.Compiled) int {
	t.Helper()
	rr, err := c.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	return len(rr.Tuples)
}

// TestReusedTreeSeesFinalize: AddRoleFact bumps the data version but
// Finalize, which publishes the fact, does not; a tree built between
// the two is reused after Finalize and must not serve the role scan it
// cached before.
func TestReusedTreeSeesFinalize(t *testing.T) {
	db := engine.NewDB(engine.LayoutSimple)
	db.AddConceptFact("A", "a")
	db.AddRoleFact("R", "b", "c")
	db.Finalize()
	c := compileNode(t, db, cqPlan("q(x, y) <- A(x), R(y, z)"))
	if n := runRows(t, c); n != 1 {
		t.Fatalf("before the write: %d rows, want 1", n)
	}
	db.AddRoleFact("R", "d", "e")
	if n := runRows(t, c); n != 1 {
		t.Fatalf("write pending: %d rows, want 1", n)
	}
	db.Finalize()
	if n := runRows(t, c); n != 2 {
		t.Fatalf("after Finalize: %d rows, want 2", n)
	}
}

// TestRunRebuildsAfterWrite: a constant absent from the dictionary
// kills its atom for the run; once a write creates its table and adds
// it, the next run — which Open binds to the constant afresh, on a
// pooled tree or a new one — must see it.
func TestRunRebuildsAfterWrite(t *testing.T) {
	db := engine.NewDB(engine.LayoutSimple)
	db.AddConceptFact("A", "a")
	db.Finalize()
	c := compileNode(t, db, cqPlan("q(x) <- A(x), B('newcomer')"))
	for i := 0; i < 2; i++ {
		if n := runRows(t, c); n != 0 {
			t.Fatalf("run %d before the write: %d rows, want 0", i, n)
		}
	}
	db.AddConceptFact("B", "newcomer")
	db.Finalize()
	if n := runRows(t, c); n != 1 {
		t.Fatalf("after the write: %d rows, want 1", n)
	}
}

// TestPooledTreeSurvivesWrite: a write keeps a pooled tree — the next
// run re-opens it and sees the new fact. Each attempt writes one new Q3
// answer, an existing paper by an existing author of another; a
// sync.Pool may drop a state (after a garbage collection, on another
// processor, or at random under the race detector), so reuse must show
// in one attempt of twenty. A write that creates a table keeps the tree
// too: a tree built while B and R had no table re-opens across the
// writes that create them, on both layouts, and answers 0, 0 and then
// 1 row.
func TestPooledTreeSurvivesWrite(t *testing.T) {
	db := lubmDB()
	c := compileLUBM(t, db, 2, core.StrategyUCQ) // Q3(x, y): paper x, author y
	rows := answers(t, c, 1)
	var papers, authors []string
	seen := map[string]bool{}
	for _, r := range rows {
		x, y, _ := strings.Cut(r, ",")
		if !seen["x"+x] {
			papers = append(papers, x)
		}
		if !seen["y"+y] {
			authors = append(authors, y)
		}
		seen["x"+x], seen["y"+y] = true, true
	}
	reused, attempts := false, 0
	for _, x := range papers {
		for _, y := range authors {
			if reused || attempts == 20 || slices.Contains(rows, x+","+y) {
				continue
			}
			attempts++
			before := c.PooledTree()
			db.AddRoleFact("authorOf", y, x)
			db.Finalize()
			want := append(slices.Clone(rows), x+","+y)
			slices.Sort(want)
			if rows = answers(t, c, 1); !slices.Equal(rows, want) {
				t.Fatalf("after authorOf(%s, %s): %d answers, want %d", y, x, len(rows), len(want))
			}
			reused = before != nil && c.PooledTree() == before
		}
	}
	if attempts == 0 {
		t.Fatal("no candidate write")
	}
	if !reused {
		t.Errorf("none of %d runs after a write re-opened the tree the run before it left", attempts)
	}

	for _, layout := range []engine.Layout{engine.LayoutSimple, engine.LayoutRDF} {
		reused := false
		for attempt := 0; attempt < 20 && !reused; attempt++ {
			db := engine.NewDB(layout)
			db.AddConceptFact("A", "a")
			db.Finalize()
			c := compileNode(t, db, cqPlan("q(x) <- A(x), B(x), R(x, y)"))
			for i := 0; i < 2; i++ {
				if n := runRows(t, c); n != 0 {
					t.Fatalf("%v: run %d before the writes: %d rows, want 0", layout, i, n)
				}
			}
			before := c.PooledTree()
			db.AddConceptFact("B", "a")
			db.Finalize()
			if n := runRows(t, c); n != 0 {
				t.Fatalf("%v: with B only: %d rows, want 0", layout, n)
			}
			mid := c.PooledTree()
			db.AddRoleFact("R", "a", "b")
			db.Finalize()
			if n := runRows(t, c); n != 1 {
				t.Fatalf("%v: with B and R: %d rows, want 1", layout, n)
			}
			reused = before != nil && mid == before && c.PooledTree() == before
		}
		if !reused {
			t.Errorf("%v: in none of 20 attempts did one tree answer across the writes that created B and R", layout)
		}
	}
}

// TestConstantTreeSeesWrite: a plan with a constant binds it at every
// Open, so a write that adds the constant a pooled tree found absent —
// here into a table that already existed — keeps the tree, and the
// re-opened tree sees the new row. Reuse must show in one attempt of
// twenty, as in TestPooledTreeSurvivesWrite.
func TestConstantTreeSeesWrite(t *testing.T) {
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		db := engine.NewDB(engine.LayoutSimple)
		db.AddConceptFact("A", "a")
		db.AddConceptFact("B", "b")
		db.Finalize()
		c := compileNode(t, db, cqPlan("q(x) <- A(x), B('newcomer')"))
		for i := 0; i < 2; i++ {
			if n := runRows(t, c); n != 0 {
				t.Fatalf("run %d before the write: %d rows, want 0", i, n)
			}
		}
		before := c.PooledTree()
		db.AddConceptFact("B", "newcomer")
		db.Finalize()
		if n := runRows(t, c); n != 1 {
			t.Fatalf("after the write: %d rows, want 1", n)
		}
		reused = before != nil && c.PooledTree() == before
	}
	if !reused {
		t.Error("in none of 20 attempts did the run after the write re-open the tree the run before it left")
	}
}

// TestRerunMatchesFreshCompile: for every LUBM query and strategy, three
// runs of one Compiled answer and explain byte for byte as a fresh
// compile of the same plan does, and a later run leaves an earlier
// run's EXPLAIN untouched. EDL's exhaustive search takes seconds per
// query, minutes under the race detector, and its covers are shaped
// like GDL's, so race builds leave it out.
func TestRerunMatchesFreshCompile(t *testing.T) {
	db := lubmDB()
	for qi := range lubm.Queries() {
		for _, s := range core.Strategies() {
			if raceEnabled && s == core.StrategyEDL {
				continue
			}
			n := planLUBM(t, db, qi, s)
			c := compileNode(t, db, n)
			var first *plan.Explain
			var firstText string
			var firstRows []int64
			for run := 0; run < 3; run++ {
				got, err := c.Run(1)
				if err != nil {
					t.Fatal(err)
				}
				want, err := compileNode(t, db, n).Run(1)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Tuples, want.Tuples) {
					t.Errorf("Q%d/%s run %d: %d tuples, fresh compile %d", qi+1, s, run, len(got.Tuples), len(want.Tuples))
				}
				if g, w := got.Explain.Text(), want.Explain.Text(); g != w {
					t.Errorf("Q%d/%s run %d: EXPLAIN differs from a fresh compile:\n%s\nwant\n%s", qi+1, s, run, g, w)
				}
				if run == 0 {
					first, firstText, firstRows = got.Explain, got.Explain.Text(), actualRows(got.Explain.Root, nil)
					continue
				}
				if shared := sharedNodes(first.Root, got.Explain.Root); shared != 0 {
					t.Errorf("Q%d/%s run %d shares %d EXPLAIN nodes with run 0", qi+1, s, run, shared)
				}
				if first.Text() != firstText || !slices.Equal(actualRows(first.Root, nil), firstRows) {
					t.Errorf("Q%d/%s run %d changed run 0's EXPLAIN", qi+1, s, run)
				}
			}
		}
	}
}

// actualRows lists the tree's actual row counts in preorder.
func actualRows(e *plan.ExplainNode, out []int64) []int64 {
	out = append(out, e.ActualRows)
	for _, c := range e.Children {
		out = actualRows(c, out)
	}
	return out
}

// sharedNodes counts the nodes of b that are also nodes of a.
func sharedNodes(a, b *plan.ExplainNode) int {
	seen := map[*plan.ExplainNode]bool{}
	var mark func(*plan.ExplainNode)
	mark = func(e *plan.ExplainNode) {
		seen[e] = true
		for _, c := range e.Children {
			mark(c)
		}
	}
	mark(a)
	shared := 0
	var count func(*plan.ExplainNode)
	count = func(e *plan.ExplainNode) {
		if seen[e] {
			shared++
		}
		for _, c := range e.Children {
			count(c)
		}
	}
	count(b)
	return shared
}

// TestRunAcrossWorkerBudgets: a tree built for one worker budget is
// never reused for another, and alternating budgets answer the same.
func TestRunAcrossWorkerBudgets(t *testing.T) {
	db := lubmDB()
	c := compileLUBM(t, db, 2, core.StrategyUCQ) // Q3
	want := answers(t, c, 1)
	for _, workers := range []int{4, 1, 4} {
		if got := answers(t, c, workers); !slices.Equal(got, want) {
			t.Errorf("workers=%d: %d answers, want %d", workers, len(got), len(want))
		}
	}
}

package engine

// Test-only hooks: the planner and compiler for the package's own
// tests, row checks for the external test package, and the evaluation
// and operator-tree helpers only tests call.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/plan"
	"repro/internal/query"
)

// planBlocks plans, as the compiler plans an arm of the plan IR, the
// arm projecting head whose body is blocks, each one access leaf in
// body order.
func planBlocks(head []query.Term, blocks [][]query.Atom, db *DB, prof *Profile) *armPlan {
	a := &armPlan{n: &plan.Node{Op: plan.OpProject, Head: head}, leaves: make([]*plan.Node, len(blocks))}
	for i, b := range blocks {
		a.leaves[i] = &plan.Node{Op: plan.OpAccess, Atoms: b, Pos: i}
	}
	a.steps, a.est = planArm(a.leaves, db, prof)
	return a
}

// buildArm builds a's operator tree, and the body pipeline under its
// projection, for one run without arguments, binding the arm's
// constants as Compiled.Tree does.
func buildArm(a *armPlan, db *DB) (proj, body Operator) {
	r := &run{db: db}
	proj, body = compileArm(a, r)
	r.args.resolve(db.Dict, nil)
	return proj, body
}

// cqBlocks returns q's body as one-atom blocks.
func cqBlocks(q query.CQ) [][]query.Atom {
	blocks := make([][]query.Atom, len(q.Atoms))
	for i := range q.Atoms {
		blocks[i] = q.Atoms[i : i+1]
	}
	return blocks
}

// inBodyOrder puts a's blocks back in body order, so a test fixes which
// side of each atom is bound.
func (a *armPlan) inBodyOrder() *armPlan {
	slices.SortFunc(a.leaves, func(x, y *plan.Node) int { return cmp.Compare(x.Pos, y.Pos) })
	return a
}

// HasExistenceProbe reports whether a filter of the tree checks an
// existence probe.
func HasExistenceProbe(op Operator) bool {
	if f, ok := op.(*filterOp); ok {
		for _, a := range f.alts {
			if a.exists {
				return true
			}
		}
	}
	for _, c := range op.Children() {
		if HasExistenceProbe(c) {
			return true
		}
	}
	return false
}

// PooledTree returns the operator tree of a run state in c's pool and
// puts the state back; nil when the pool holds none.
func (c *Compiled) PooledTree() Operator {
	st, _ := c.states.Get().(*runState)
	if st == nil {
		return nil
	}
	c.states.Put(st)
	return st.root
}

// ExistenceCheck compiles q with its atoms as the plan steps, in body
// order, and returns the row check of its last atom, opened as its
// filter's Open opens it, with ok false unless that atom is an
// existence probe. Rows are laid out with q's variables in order of
// first use.
func ExistenceCheck(q query.CQ, db *DB) (keep func(row []int64) bool, ok bool) {
	_, body := buildArm(planBlocks(q.Head, cqBlocks(q), db, ProfilePostgres()).inBodyOrder(), db)
	f, isFilter := body.(*filterOp)
	if !isFilter || len(f.alts) != 1 || !f.alts[0].exists {
		return nil, false
	}
	f.alts[0].open()
	return f.alts[0].keep, true
}

// expandsForward reports whether op is a join of one atom over pred
// that reads its subject from the row and enumerates the objects the
// forward index holds for it.
func expandsForward(op Operator, pred string) bool {
	j, ok := op.(*joinOp)
	if !ok || len(j.alts) != 1 {
		return false
	}
	a := j.alts[0]
	return a.pred == pred && a.arity == 2 && a.s.bound && !a.o.isBound()
}

// EvaluateJUSCQ answers a JUSCQ on the native backend.
func EvaluateJUSCQ(j query.JUSCQ, db *DB, prof *Profile) Answer {
	return evaluate(plan.FromJUSCQ(j), db, prof)
}

// ExplainPipeline renders an operator tree with the per-operator row
// and batch counters gathered during execution — the "EXPLAIN ANALYZE"
// of the streaming path.
func ExplainPipeline(op Operator) string {
	var b strings.Builder
	var walk func(op Operator, depth int)
	walk = func(op Operator, depth int) {
		st := op.Stats()
		fmt.Fprintf(&b, "%s%-24s rows=%-8d batches=%d\n",
			strings.Repeat("  ", depth), st.Op, st.Rows, st.Batches)
		children := op.Children()
		// Render children deterministically even if the slice is shared.
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}

// CollectStats flattens the tree's statistics, roots first.
func CollectStats(op Operator) []OpStats {
	var out []OpStats
	var walk func(op Operator)
	walk = func(op Operator) {
		out = append(out, op.Stats())
		for _, c := range op.Children() {
			walk(c)
		}
	}
	walk(op)
	return out
}

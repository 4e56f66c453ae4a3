package engine

// Test-only hooks for the external test package.

import "repro/internal/query"

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

// ExistenceCheck compiles q with its atoms as the plan steps, in body
// order, and returns the row check of its last atom, with ok false
// unless that atom is an existence probe. Rows are laid out with q's
// variables in order of first use.
func ExistenceCheck(q query.CQ, db *DB) (keep func(row []int64) bool, ok bool) {
	steps := make([]PlanStep, len(q.Atoms))
	for i := range steps {
		steps[i].Atom = i
	}
	_, body := compileCQ(&CQPlan{Q: q, Steps: steps}, db, nil, nil)
	f, isFilter := body.(*filterOp)
	if !isFilter || len(f.alts) != 1 || !f.alts[0].exists {
		return nil, false
	}
	return f.alts[0].keep, true
}

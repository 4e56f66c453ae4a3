package engine

// The original materialize-everything executor, kept as the reference
// path: it builds every intermediate result as [][]int64. The streaming
// operator pipeline (operator.go, compile.go, backend.go) is the
// production path; this one serves as the differential-testing oracle
// and as the baseline the benchmarks compare allocations against. It
// takes the dialect queries themselves and shares only the join-order
// planner with the production path.

import (
	"repro/internal/plan"
	"repro/internal/query"
)

// ExecCQMaterialized plans q under the profile and evaluates it by
// materializing every intermediate, returning rows projected on the CQ
// head (duplicates preserved; callers apply Distinct).
func ExecCQMaterialized(q query.CQ, db *DB, prof *Profile) *Relation {
	p := PlanCQ(q, db, prof)
	// Column layout: variables in order of first use across the plan.
	colOf := map[string]int{}
	var cols []string
	for _, s := range p.Steps {
		for _, t := range q.Atoms[s.Atom].Args {
			if t.IsVar() {
				if _, ok := colOf[t.Name]; !ok {
					colOf[t.Name] = len(cols)
					cols = append(cols, t.Name)
				}
			}
		}
	}
	rows := [][]int64{make([]int64, len(cols))}
	boundMask := make([]bool, len(cols))
	for _, s := range p.Steps {
		rows = execStep(q.Atoms[s.Atom], rows, colOf, boundMask, db)
		for _, t := range q.Atoms[s.Atom].Args {
			if t.IsVar() {
				boundMask[colOf[t.Name]] = true
			}
		}
		if len(rows) == 0 {
			break
		}
	}
	// Project onto the head.
	out := &Relation{Schema: headSchema(q.Head)}
	for _, row := range rows {
		pr := make([]int64, len(q.Head))
		ok := true
		for i, h := range q.Head {
			if h.Const {
				id, found := db.Dict.Lookup(h.Name)
				if !found {
					ok = false
					break
				}
				pr[i] = id
			} else {
				pr[i] = row[colOf[h.Name]]
			}
		}
		if ok {
			out.Rows = append(out.Rows, pr)
		}
	}
	return out
}

// execStep joins the current rows with one atom using index lookups.
func execStep(a query.Atom, rows [][]int64, colOf map[string]int, bound []bool, db *DB) [][]int64 {
	// resolve returns (value, isBound) of a term under a row.
	resolve := func(t query.Term, row []int64) (int64, bool, bool) {
		if t.Const {
			id, ok := db.Dict.Lookup(t.Name)
			return id, true, ok
		}
		c := colOf[t.Name]
		if bound[c] {
			return row[c], true, true
		}
		return 0, false, true
	}
	var out [][]int64
	emit := func(row []int64, t query.Term, v int64) []int64 {
		if t.Const {
			return row
		}
		c := colOf[t.Name]
		if bound[c] {
			return row
		}
		nr := make([]int64, len(row))
		copy(nr, row)
		nr[c] = v
		return nr
	}
	if a.Arity() == 1 {
		for _, row := range rows {
			v, isB, ok := resolve(a.Args[0], row)
			if !ok {
				continue
			}
			if isB {
				if db.ConceptContains(a.Pred, v) {
					out = append(out, row)
				}
				continue
			}
			for _, id := range db.ConceptMembers(a.Pred) {
				out = append(out, emit(row, a.Args[0], id))
			}
		}
		return out
	}
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	for _, row := range rows {
		s, sB, okS := resolve(a.Args[0], row)
		o, oB, okO := resolve(a.Args[1], row)
		if !okS || !okO {
			continue
		}
		switch {
		case sB && oB:
			if db.RoleContains(a.Pred, s, o) {
				out = append(out, row)
			}
		case sB && sameVar:
			if db.RoleContains(a.Pred, s, s) {
				out = append(out, row)
			}
		case sB:
			for _, v := range db.RoleObjects(a.Pred, s) {
				out = append(out, emit(row, a.Args[1], v))
			}
		case oB:
			for _, v := range db.RoleSubjects(a.Pred, o) {
				out = append(out, emit(row, a.Args[0], v))
			}
		default:
			if sameVar {
				db.RolePairs(a.Pred, func(ps, po int64) {
					if ps == po {
						out = append(out, emit(row, a.Args[0], ps))
					}
				})
			} else {
				db.RolePairs(a.Pred, func(ps, po int64) {
					nr := emit(row, a.Args[0], ps)
					nr = emit(nr, a.Args[1], po)
					out = append(out, nr)
				})
			}
		}
	}
	return out
}

// ExecUCQMaterialized evaluates a UCQ with DISTINCT through the
// materializing path.
func ExecUCQMaterialized(u query.UCQ, db *DB, prof *Profile) *Relation {
	out := &Relation{Schema: headSchema(u.Head())}
	for _, q := range u.Disjuncts {
		out.Rows = append(out.Rows, ExecCQMaterialized(q, db, prof).Rows...)
	}
	out.Distinct()
	return out
}

// ExecJUCQMaterialized is the pre-streaming cover path: materialize
// each fragment with DISTINCT (the WITH clauses of Section 3), join
// smallest-first (the native estimates breaking ties), then project
// the overall head with DISTINCT.
func ExecJUCQMaterialized(j query.JUCQ, db *DB, prof *Profile) *Relation {
	frags := make([]*Relation, len(j.Subs))
	ests := make([]float64, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = ExecUCQMaterialized(sub, db, prof)
		ests[i] = NewBackend(db, prof).Estimate(plan.FromUCQ(sub)).Card
	}
	return JoinAndProjectEst(frags, ests, j.Head, db)
}

// ExecJUSCQMaterialized is ExecJUCQMaterialized for JUSCQs: each USCQ
// fragment materializes as its expansion into a UCQ.
func ExecJUSCQMaterialized(j query.JUSCQ, db *DB, prof *Profile) *Relation {
	frags := make([]*Relation, len(j.Subs))
	ests := make([]float64, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = ExecUCQMaterialized(sub.Expand(), db, prof)
		ests[i] = NewBackend(db, prof).Estimate(plan.FromUSCQ(sub)).Card
	}
	return JoinAndProjectEst(frags, ests, j.Head, db)
}

package engine

// The materialize-everything CQ executor, kept as the bag reference for
// tests that check what a set-valued oracle cannot: duplicate counts and
// row order. It builds every intermediate as [][]int64 along the
// production join order (planArm's), and, like the pipeline, checks an
// atom for a match instead of enumerating its matches when the variable
// it would bind is read by no later atom and not by the head.
// Set-valued comparisons use internal/naive instead.

import "repro/internal/query"

// ExecCQMaterialized plans q under the profile and evaluates it by
// materializing every intermediate, returning rows projected on the CQ
// head (duplicates preserved).
func ExecCQMaterialized(q query.CQ, db *DB, prof *Profile) *Relation {
	leaves := planBlocks(q.Head, cqBlocks(q), db, prof).leaves
	// Column layout: variables in order of first use across the plan.
	colOf := map[string]int{}
	var cols []string
	for _, leaf := range leaves {
		for _, t := range leaf.Atoms[0].Args {
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
	for i, leaf := range leaves {
		// readLater: the variables the head or a later step reads.
		readLater := map[string]bool{}
		for _, h := range q.Head {
			if h.IsVar() {
				readLater[h.Name] = true
			}
		}
		for _, later := range leaves[i+1:] {
			for _, t := range later.Atoms[0].Args {
				if t.IsVar() {
					readLater[t.Name] = true
				}
			}
		}
		rows = execStep(leaf.Atoms[0], rows, colOf, boundMask, readLater, db)
		for _, t := range leaf.Atoms[0].Args {
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

// execStep joins the current rows with one atom using index lookups. A
// role atom with one side bound whose other side is a variable outside
// readLater keeps each row once if it has any match.
func execStep(a query.Atom, rows [][]int64, colOf map[string]int, bound []bool, readLater map[string]bool, db *DB) [][]int64 {
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
		case sB && !readLater[a.Args[1].Name]:
			if len(db.RoleObjects(a.Pred, s)) > 0 {
				out = append(out, row)
			}
		case oB && !readLater[a.Args[0].Name]:
			if len(db.RoleSubjects(a.Pred, o)) > 0 {
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

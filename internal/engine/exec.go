package engine

import (
	"fmt"
	"sort"

	"repro/internal/query"
)

// Relation is a materialized final result (or cached fragment): rows of
// ids under a schema of variable names. Intermediates of the hot path
// no longer materialize Relations — they stream through the operator
// pipeline (operator.go) and are drained into a Relation only at the
// top.
type Relation struct {
	Schema []string
	Rows   [][]int64
}

// Distinct removes duplicate rows in place (stable), deduplicating
// through the 64-bit row hash (collisions verified exactly — no
// string keys).
func (r *Relation) Distinct() {
	set := newRowSet(len(r.Schema))
	out := r.Rows[:0]
	for _, row := range r.Rows {
		if set.insert(row) {
			out = append(out, row)
		}
	}
	r.Rows = out
}

// Decode renders the relation as sorted string tuples via the
// dictionary. The tuples share one backing array, each capped at its
// own width.
func (r *Relation) Decode(d *Dictionary) [][]string {
	total := 0
	for _, row := range r.Rows {
		total += len(row)
	}
	out := make([][]string, len(r.Rows))
	back := make([]string, 0, total)
	for i, row := range r.Rows {
		start := len(back)
		for _, id := range row {
			back = append(back, d.Decode(id))
		}
		out[i] = back[start:len(back):len(back)]
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func headSchema(head []query.Term) []string {
	s := make([]string, len(head))
	for i, h := range head {
		s[i] = h.Name
	}
	return s
}

// HashJoin joins two materialized relations on their shared schema
// variables (the materialized JUCQ fragment join). Buckets
// key on the 64-bit hash of the join columns; matches are verified
// exactly.
func HashJoin(l, r *Relation) *Relation {
	rIdx := make(map[string]int, len(r.Schema))
	for i, v := range r.Schema {
		rIdx[v] = i
	}
	var common [][2]int
	inCommon := make([]bool, len(r.Schema))
	for i, v := range l.Schema {
		if j, ok := rIdx[v]; ok {
			common = append(common, [2]int{i, j})
			inCommon[j] = true
		}
	}
	schema := append([]string(nil), l.Schema...)
	var rExtra []int
	for j, v := range r.Schema {
		if !inCommon[j] {
			rExtra = append(rExtra, j)
			schema = append(schema, v)
		}
	}
	key := func(row []int64, side int) uint64 {
		h := uint64(0x9e3779b97f4a7c15)
		for _, c := range common {
			h = mix64(h ^ uint64(row[c[side]]))
		}
		return h
	}
	equalOn := func(lt, rt []int64) bool {
		for _, c := range common {
			if lt[c[0]] != rt[c[1]] {
				return false
			}
		}
		return true
	}
	buckets := make(map[uint64][]int, len(r.Rows))
	for i, rt := range r.Rows {
		h := key(rt, 1)
		buckets[h] = append(buckets[h], i)
	}
	out := &Relation{Schema: schema}
	for _, lt := range l.Rows {
		for _, ri := range buckets[key(lt, 0)] {
			rt := r.Rows[ri]
			if !equalOn(lt, rt) {
				continue
			}
			row := make([]int64, 0, len(schema))
			row = append(row, lt...)
			for _, j := range rExtra {
				row = append(row, rt[j])
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// JoinAndProjectEst joins materialized fragment relations and projects
// the overall head with DISTINCT — the tail of the WITH query of
// Section 3. Fragments fold left-to-right ordered by materialized size,
// the planner's estimated fragment cardinalities breaking ties, so the
// smallest build side always joins first even when actual sizes
// coincide.
func JoinAndProjectEst(frags []*Relation, ests []float64, head []query.Term, db *DB) *Relation {
	if len(frags) == 0 {
		return &Relation{Schema: headSchema(head)}
	}
	order := make([]int, len(frags))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if len(frags[i].Rows) != len(frags[j].Rows) {
			return len(frags[i].Rows) < len(frags[j].Rows)
		}
		return ests[i] < ests[j]
	})
	cur := frags[order[0]]
	for _, fi := range order[1:] {
		cur = HashJoin(cur, frags[fi])
		if len(cur.Rows) == 0 {
			break
		}
	}
	return projectRelation(cur, head, db)
}

func projectRelation(r *Relation, head []query.Term, db *DB) *Relation {
	idx := make([]int, len(head))
	for i, h := range head {
		idx[i] = -1
		for j, v := range r.Schema {
			if v == h.Name {
				idx[i] = j
				break
			}
		}
	}
	out := &Relation{Schema: headSchema(head)}
	for _, row := range r.Rows {
		pr := make([]int64, len(head))
		ok := true
		for i, h := range head {
			switch {
			case idx[i] >= 0:
				pr[i] = row[idx[i]]
			case h.Const:
				id, found := db.Dict.Lookup(h.Name)
				if !found {
					ok = false
				}
				pr[i] = id
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			out.Rows = append(out.Rows, pr)
		}
	}
	out.Distinct()
	return out
}

// Answer is the user-facing result of evaluating a query: decoded
// tuples plus the execution's estimated cost.
type Answer struct {
	Tuples  [][]string
	EstCost float64
}

// String renders a Relation compactly (diagnostics).
func (r *Relation) String() string {
	return fmt.Sprintf("relation%v (%d rows)", r.Schema, len(r.Rows))
}

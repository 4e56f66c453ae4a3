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

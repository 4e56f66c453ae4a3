// Package naive provides a deliberately simple reference evaluator for
// the FOL query dialects over small ABoxes. It is the correctness
// oracle the test suites and examples compare the real engine and the
// cover-based reformulations against; it makes no attempt at
// efficiency (nested-loop matching, full materialization).
package naive

import (
	"sort"
	"strings"

	"repro/internal/dllite"
	"repro/internal/query"
)

// Tuple is an answer tuple; the zero-length tuple encodes boolean true.
type Tuple []string

// Key renders the tuple as a map key.
func (t Tuple) Key() string { return strings.Join(t, "\x00") }

// Relation is a set of tuples with a schema of variable names.
type Relation struct {
	Schema []string
	Tuples map[string]Tuple
}

// NewRelation builds an empty relation with the given schema.
func NewRelation(schema []string) *Relation {
	return &Relation{Schema: schema, Tuples: make(map[string]Tuple)}
}

// Add inserts a tuple.
func (r *Relation) Add(t Tuple) { r.Tuples[t.Key()] = t }

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.Tuples) }

// Sorted returns the tuples sorted lexicographically (stable output for
// tests and examples).
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// EvalCQ evaluates a CQ over the ABox by backtracking over assertions.
// A head constant answers as itself; PerfectRef's reduce step creates
// them (q(x) <- R(x, y), R('c', y) yields q('c') <- R('c', y)).
func EvalCQ(q query.CQ, ab *dllite.ABox) *Relation {
	schema := make([]string, len(q.Head))
	for i, h := range q.Head {
		schema[i] = h.Name
	}
	rel := NewRelation(schema)
	bind := make(map[string]string)
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Atoms) {
			t := make(Tuple, len(q.Head))
			for j, h := range q.Head {
				if h.Const {
					t[j] = h.Name
				} else {
					t[j] = bind[h.Name]
				}
			}
			rel.Add(t)
			return
		}
		a := q.Atoms[i]
		for _, as := range ab.Assertions {
			if as.Pred != a.Pred || as.IsRole() != (a.Arity() == 2) {
				continue
			}
			var undo []string
			ok := matchTerm(a.Args[0], as.S, bind, &undo)
			if ok && a.Arity() == 2 {
				ok = matchTerm(a.Args[1], as.O, bind, &undo)
			}
			if ok {
				rec(i + 1)
			}
			for _, v := range undo {
				delete(bind, v)
			}
		}
	}
	rec(0)
	return rel
}

func matchTerm(t query.Term, val string, bind map[string]string, undo *[]string) bool {
	if t.Const {
		return t.Name == val
	}
	if v, ok := bind[t.Name]; ok {
		return v == val
	}
	bind[t.Name] = val
	*undo = append(*undo, t.Name)
	return true
}

// EvalUCQ evaluates a UCQ (union of the disjunct answers).
func EvalUCQ(u query.UCQ, ab *dllite.ABox) *Relation {
	schema := make([]string, len(u.Head()))
	for i, h := range u.Head() {
		schema[i] = h.Name
	}
	rel := NewRelation(schema)
	for _, d := range u.Disjuncts {
		for _, t := range EvalCQ(d, ab).Tuples {
			rel.Add(t)
		}
	}
	return rel
}

// EvalSCQ evaluates an SCQ by expansion.
func EvalSCQ(s query.SCQ, ab *dllite.ABox) *Relation {
	return EvalUCQ(s.Expand(), ab)
}

// EvalUSCQ evaluates a USCQ by expansion.
func EvalUSCQ(u query.USCQ, ab *dllite.ABox) *Relation {
	return EvalUCQ(u.Expand(), ab)
}

// EvalJUCQ evaluates a JUCQ: each sub-UCQ is materialized, the results
// are natural-joined on shared schema variables, and the overall head
// is projected out with set semantics.
func EvalJUCQ(j query.JUCQ, ab *dllite.ABox) *Relation {
	cur := unitRelation()
	for _, sub := range j.Subs {
		cur = naturalJoin(cur, EvalUCQ(sub, ab))
	}
	return project(cur, j.Head)
}

// EvalJUSCQ evaluates a JUSCQ analogously.
func EvalJUSCQ(j query.JUSCQ, ab *dllite.ABox) *Relation {
	cur := unitRelation()
	for _, sub := range j.Subs {
		cur = naturalJoin(cur, EvalUSCQ(sub, ab))
	}
	return project(cur, j.Head)
}

func unitRelation() *Relation {
	r := NewRelation(nil)
	r.Add(Tuple{})
	return r
}

func naturalJoin(l, r *Relation) *Relation {
	var common [][2]int // (left idx, right idx)
	rIdx := make(map[string]int, len(r.Schema))
	for i, v := range r.Schema {
		rIdx[v] = i
	}
	var rExtra []int
	schema := append([]string(nil), l.Schema...)
	for i, v := range l.Schema {
		if j, ok := rIdx[v]; ok {
			common = append(common, [2]int{i, j})
		}
	}
	for j, v := range r.Schema {
		found := false
		for _, c := range common {
			if c[1] == j {
				found = true
				break
			}
		}
		if !found {
			rExtra = append(rExtra, j)
			schema = append(schema, v)
		}
	}
	out := NewRelation(schema)
	// Hash the right side on the common columns.
	buckets := make(map[string][]Tuple)
	for _, rt := range r.Tuples {
		var kb strings.Builder
		for _, c := range common {
			kb.WriteString(rt[c[1]])
			kb.WriteByte('\x00')
		}
		buckets[kb.String()] = append(buckets[kb.String()], rt)
	}
	for _, lt := range l.Tuples {
		var kb strings.Builder
		for _, c := range common {
			kb.WriteString(lt[c[0]])
			kb.WriteByte('\x00')
		}
		for _, rt := range buckets[kb.String()] {
			t := make(Tuple, 0, len(schema))
			t = append(t, lt...)
			for _, j := range rExtra {
				t = append(t, rt[j])
			}
			out.Add(t)
		}
	}
	return out
}

func project(r *Relation, head []query.Term) *Relation {
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
	schema := make([]string, len(head))
	for i, h := range head {
		schema[i] = h.Name
	}
	out := NewRelation(schema)
	for _, t := range r.Tuples {
		p := make(Tuple, len(head))
		for i, j := range idx {
			if j >= 0 {
				p[i] = t[j]
			}
		}
		out.Add(p)
	}
	return out
}

// SameAnswers reports whether two relations contain exactly the same
// tuple sets.
func SameAnswers(a, b *Relation) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for k := range a.Tuples {
		if _, ok := b.Tuples[k]; !ok {
			return false
		}
	}
	return true
}

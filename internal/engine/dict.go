// Package engine implements the RDBMS substrate the paper delegates
// query evaluation to (Section 6.1): dictionary-encoded storage with a
// unary table per concept and a binary table per role plus one- and
// two-attribute indexes (the "simple layout"), an entity-oriented
// DB2RDF-style layout ("RDF layout", [9]), a streaming batched
// operator executor for the FOL dialects (CQ, UCQ, SCQ, USCQ, JUCQ,
// JUSCQ), a greedy join-order optimizer, table statistics, and
// per-profile cost estimation emulating Postgres's explain and DB2's
// db2expln — including Postgres's estimation shortcuts on very large
// unions and DB2's statement-length limit, both of which the paper
// measures.
//
// Execution model: the native backend (backend.go) compiles plan IR
// trees into trees of Operators (operator.go) exchanging fixed-size
// batches of int64 rows — scans, index-nested-loop joins, filters,
// projection, streaming DISTINCT over a 64-bit hash set, sequential or
// parallel union (the parallel union operator owns its worker pool),
// and the cover hash join. The old materialize-everything executor
// survives as Exec*Materialized for differential testing and
// benchmarking.
// Per-operator row counters (OpStats, ExplainPipeline) can feed the
// planner through Profile.Feedback for adaptive re-estimation.
package engine

import "sort"

// Dictionary maps individual names to dense int64 ids (Section 6.1:
// "facts are dictionary-encoded into integers, prior to storing them in
// the RDBMS").
type Dictionary struct {
	toID map[string]int64
	toS  []string
}

// NewDictionary builds an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{toID: make(map[string]int64)}
}

// Encode interns s, returning its id.
func (d *Dictionary) Encode(s string) int64 {
	if id, ok := d.toID[s]; ok {
		return id
	}
	id := int64(len(d.toS))
	d.toID[s] = id
	d.toS = append(d.toS, s)
	return id
}

// Lookup returns the id of s without interning; ok is false when s is
// unknown (a constant absent from the data can match nothing).
func (d *Dictionary) Lookup(s string) (int64, bool) {
	id, ok := d.toID[s]
	return id, ok
}

// Decode returns the string for id; it panics on unknown ids (ids only
// come from this dictionary).
func (d *Dictionary) Decode(id int64) string { return d.toS[id] }

// Size returns the number of interned strings.
func (d *Dictionary) Size() int { return len(d.toS) }

// ConceptTable is the unary table of a concept: the sorted set of
// member ids, with a hash index (the "one-attribute index").
type ConceptTable struct {
	IDs []int64
	set map[int64]bool
}

func newConceptTable() *ConceptTable {
	return &ConceptTable{set: make(map[int64]bool)}
}

func (t *ConceptTable) add(id int64) {
	if !t.set[id] {
		t.set[id] = true
		t.IDs = append(t.IDs, id)
	}
}

func (t *ConceptTable) finalize() {
	sort.Slice(t.IDs, func(i, j int) bool { return t.IDs[i] < t.IDs[j] })
}

// Contains probes the one-attribute index.
func (t *ConceptTable) Contains(id int64) bool {
	if t == nil {
		return false
	}
	return t.set[id]
}

// Card returns the table cardinality.
func (t *ConceptTable) Card() int {
	if t == nil {
		return 0
	}
	return len(t.IDs)
}

// RoleTable is the binary table of a role with both two-attribute
// indexes: forward (subject → objects) and reverse (object → subjects).
type RoleTable struct {
	Pairs [][2]int64
	fwd   map[int64][]int64
	rev   map[int64][]int64
	pairs map[[2]int64]bool
}

func newRoleTable() *RoleTable {
	return &RoleTable{
		fwd:   make(map[int64][]int64),
		rev:   make(map[int64][]int64),
		pairs: make(map[[2]int64]bool),
	}
}

func (t *RoleTable) add(s, o int64) {
	k := [2]int64{s, o}
	if t.pairs[k] {
		return
	}
	t.pairs[k] = true
	t.Pairs = append(t.Pairs, k)
	t.fwd[s] = append(t.fwd[s], o)
	t.rev[o] = append(t.rev[o], s)
}

// finalize sorts the pair list and both adjacency indexes, giving
// deterministic scan and index-expansion order regardless of load
// order (concept tables get the same treatment; see DB.Finalize).
func (t *RoleTable) finalize() {
	sort.Slice(t.Pairs, func(i, j int) bool {
		if t.Pairs[i][0] != t.Pairs[j][0] {
			return t.Pairs[i][0] < t.Pairs[j][0]
		}
		return t.Pairs[i][1] < t.Pairs[j][1]
	})
	for _, vs := range t.fwd {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
	for _, vs := range t.rev {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
}

// Card returns the number of stored pairs.
func (t *RoleTable) Card() int {
	if t == nil {
		return 0
	}
	return len(t.Pairs)
}

// DistinctS returns the number of distinct subjects.
func (t *RoleTable) DistinctS() int {
	if t == nil {
		return 0
	}
	return len(t.fwd)
}

// DistinctO returns the number of distinct objects.
func (t *RoleTable) DistinctO() int {
	if t == nil {
		return 0
	}
	return len(t.rev)
}

// Objects returns the objects paired with subject s (forward index).
func (t *RoleTable) Objects(s int64) []int64 {
	if t == nil {
		return nil
	}
	return t.fwd[s]
}

// Subjects returns the subjects paired with object o (reverse index).
func (t *RoleTable) Subjects(o int64) []int64 {
	if t == nil {
		return nil
	}
	return t.rev[o]
}

// ContainsPair probes the two-attribute index.
func (t *RoleTable) ContainsPair(s, o int64) bool {
	if t == nil {
		return false
	}
	return t.pairs[[2]int64{s, o}]
}

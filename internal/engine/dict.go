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
// and the cover hash join. Tests check answers against internal/naive
// and a CQ's duplicates and row order against a test-only materializing
// executor (materialize_test.go).
package engine

import (
	"cmp"
	"slices"
)

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

// Storage kernels of the simple layout. Ids are dense (0 … Size()-1),
// so every index is a plain array indexed by id rather than a hash map:
// a bitset for concept membership and two CSR (compressed sparse row)
// adjacency indexes per role. Writes go to a per-table pending list and
// become visible to probes only when DB.Finalize merges them in; a
// table without pending writes is left untouched, so a write rebuilds
// only the table it went to.

// ConceptTable is the unary table of a concept: the sorted set of
// member ids, with a bitset over ids as the one-attribute index.
type ConceptTable struct {
	IDs     []int64
	bits    []uint64 // bit id is set iff id ∈ IDs
	pending []int64  // added since the last finalize, unsorted
}

func (t *ConceptTable) add(id int64) { t.pending = append(t.pending, id) }

// finalize merges the pending ids into IDs and rebuilds the bitset into
// fresh storage; a table with nothing pending keeps its slices.
func (t *ConceptTable) finalize() {
	if len(t.pending) == 0 {
		return
	}
	t.IDs = mergeDedup(t.IDs, t.pending, cmp.Compare[int64])
	t.pending = nil
	t.bits = make([]uint64, t.IDs[len(t.IDs)-1]/64+1)
	for _, id := range t.IDs {
		t.bits[id/64] |= 1 << (id % 64)
	}
}

// Contains probes the one-attribute index.
func (t *ConceptTable) Contains(id int64) bool {
	if t == nil {
		return false
	}
	w := uint64(id) / 64
	return w < uint64(len(t.bits)) && t.bits[w]&(1<<(uint64(id)%64)) != 0
}

// Card returns the table cardinality.
func (t *ConceptTable) Card() int {
	if t == nil {
		return 0
	}
	return len(t.IDs)
}

// RoleTable is the binary table of a role: the sorted, deduplicated
// pairs with both two-attribute indexes, forward (subject → objects)
// and reverse (object → subjects).
type RoleTable struct {
	Pairs        [][2]int64
	fwd, rev     csr
	distS, distO int
	pending      [][2]int64 // added since the last finalize, unsorted
}

// csr is an adjacency index over dense ids: the neighbours of id are
// nbrs[off[id]:off[id+1]], in ascending order. Ids past the end of off
// have none.
type csr struct {
	off  []int32
	nbrs []int64
}

// neighbours returns the neighbours of id, capped so a caller's append
// cannot overwrite the next id's run.
func (c *csr) neighbours(id int64) []int64 {
	if id < 0 || id >= int64(len(c.off))-1 {
		return nil
	}
	lo, hi := c.off[id], c.off[id+1]
	return c.nbrs[lo:hi:hi]
}

// buildCSR indexes pairs on column key, storing column val as the
// neighbour, and also returns the number of distinct keys. Neighbours
// land in pair order, so pairs sorted on either column first give
// ascending runs.
func buildCSR(pairs [][2]int64, key, val int) (csr, int) {
	var maxID int64
	for _, p := range pairs {
		maxID = max(maxID, p[key])
	}
	c := csr{off: make([]int32, maxID+2), nbrs: make([]int64, len(pairs))}
	for _, p := range pairs {
		c.off[p[key]+1]++
	}
	distinct := 0
	for id := 1; id < len(c.off); id++ {
		if c.off[id] > 0 {
			distinct++
		}
		c.off[id] += c.off[id-1]
	}
	// off[id] is now the start of id's run; use it as the run's write
	// cursor, which leaves it at the run's end, then shift back.
	for _, p := range pairs {
		c.nbrs[c.off[p[key]]] = p[val]
		c.off[p[key]]++
	}
	copy(c.off[1:], c.off)
	c.off[0] = 0
	return c, distinct
}

func (t *RoleTable) add(s, o int64) { t.pending = append(t.pending, [2]int64{s, o}) }

// finalize merges the pending pairs into Pairs and rebuilds both
// indexes into fresh storage, giving deterministic scan and expansion
// order regardless of load order; a table with nothing pending keeps
// its slices.
func (t *RoleTable) finalize() {
	if len(t.pending) == 0 {
		return
	}
	t.Pairs = mergeDedup(t.Pairs, t.pending, comparePairs)
	t.pending = nil
	t.fwd, t.distS = buildCSR(t.Pairs, 0, 1)
	t.rev, t.distO = buildCSR(t.Pairs, 1, 0)
}

func comparePairs(a, b [2]int64) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// mergeDedup returns the sorted union of sorted, duplicate-free a and
// unsorted b in a fresh slice; it sorts b in place.
func mergeDedup[T any](a, b []T, compare func(x, y T) int) []T {
	slices.SortFunc(b, compare)
	out := make([]T, 0, len(a)+len(b))
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var v T
		if j == len(b) || (i < len(a) && compare(a[i], b[j]) <= 0) {
			v, i = a[i], i+1
		} else {
			v, j = b[j], j+1
		}
		if len(out) == 0 || compare(out[len(out)-1], v) != 0 {
			out = append(out, v)
		}
	}
	return out
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
	return t.distS
}

// DistinctO returns the number of distinct objects.
func (t *RoleTable) DistinctO() int {
	if t == nil {
		return 0
	}
	return t.distO
}

// Objects returns the objects paired with subject s (forward index),
// ascending.
func (t *RoleTable) Objects(s int64) []int64 {
	if t == nil {
		return nil
	}
	return t.fwd.neighbours(s)
}

// Subjects returns the subjects paired with object o (reverse index),
// ascending.
func (t *RoleTable) Subjects(o int64) []int64 {
	if t == nil {
		return nil
	}
	return t.rev.neighbours(o)
}

// ContainsPair probes the two-attribute index: a binary search in the
// objects of s.
func (t *RoleTable) ContainsPair(s, o int64) bool {
	if t == nil {
		return false
	}
	_, ok := slices.BinarySearch(t.fwd.neighbours(s), o)
	return ok
}

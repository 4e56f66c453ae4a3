// Package cover implements the paper's query covers: simple covers
// (Definition 1) with their fragment queries (Definition 2), safe covers
// (Definition 5), the root cover Croot (Definition 6), the safe-cover
// lattice Lq (Section 5.1), generalized covers f‖g with semijoin-reducer
// atoms (Section 5.2, Definition 7) forming the space Gq, and
// cover-based reformulation into JUCQ/JUSCQ (Definition 3, Theorems 1
// and 3).
//
// Fragments are represented as bitmasks over the query's atom indexes;
// queries are limited to 64 atoms (the paper's workload peaks at 10).
package cover

import (
	"bytes"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/dllite"
	"repro/internal/query"
)

// MaxAtoms bounds the number of atoms a covered query may have.
const MaxAtoms = 64

// Fragment is a generalized fragment f‖g: G ⊆ F are bitmasks over the
// atoms of the query. A simple fragment has F == G. Atoms in F\G only
// filter (semijoin-reduce) the fragment's answers; head variables are
// computed from G alone (Definition 7).
type Fragment struct {
	F, G uint64
}

// Simple builds the simple fragment over the given mask.
func Simple(mask uint64) Fragment { return Fragment{F: mask, G: mask} }

// IsSimple reports whether the fragment has no reducer atoms.
func (f Fragment) IsSimple() bool { return f.F == f.G }

// Cover is a (possibly generalized) cover of a query: a set of
// fragments whose F-parts together contain every atom (Definition 1 /
// Section 5.2). The query is carried along because fragment semantics
// (head variables, connectivity) depend on it.
type Cover struct {
	Q     query.CQ
	Frags []Fragment
}

// Validate checks the structural cover conditions: every atom covered
// by some F, no F included in another F, G ⊆ F and G nonempty for every
// fragment (Definition 1 conditions (i),(ii); Section 5.2).
func (c Cover) Validate() error {
	all := uint64(1)<<uint(len(c.Q.Atoms)) - 1
	if len(c.Q.Atoms) == 64 {
		all = ^uint64(0)
	}
	var union uint64
	for i, f := range c.Frags {
		if f.G == 0 {
			return fmt.Errorf("cover: fragment %d has empty g-part", i)
		}
		if f.G&^f.F != 0 {
			return fmt.Errorf("cover: fragment %d has g ⊄ f", i)
		}
		union |= f.F
		for j, g := range c.Frags {
			if i != j && f.F&^g.F == 0 {
				return fmt.Errorf("cover: fragment %d included in fragment %d", i, j)
			}
		}
	}
	if union != all {
		return fmt.Errorf("cover: atoms %b not covered", all&^union)
	}
	return nil
}

// IsPartition reports whether the G-parts partition the query atoms.
func (c Cover) IsPartition() bool {
	all := uint64(1)<<uint(len(c.Q.Atoms)) - 1
	var union uint64
	for _, f := range c.Frags {
		if union&f.G != 0 {
			return false
		}
		union |= f.G
	}
	return union == all
}

// IsGeneralized reports whether any fragment carries reducer atoms.
func (c Cover) IsGeneralized() bool {
	for _, f := range c.Frags {
		if !f.IsSimple() {
			return true
		}
	}
	return false
}

// Key returns a canonical string identifying the cover, used for
// deduplication during search: the fragments rendered "F|G" in hex,
// sorted as strings and joined with ";". It is built in one buffer —
// the search keys every candidate cover it meets.
func (c Cover) Key() string {
	var orderBuf [16]int
	order := orderBuf[:0]
	for i := range c.Frags {
		order = append(order, i)
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && fragKeyLess(c.Frags[order[j]], c.Frags[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	var buf [128]byte
	b := buf[:0]
	for k, i := range order {
		if k > 0 {
			b = append(b, ';')
		}
		b = appendFragKey(b, c.Frags[i])
	}
	return string(b)
}

func appendFragKey(b []byte, f Fragment) []byte {
	b = strconv.AppendUint(b, f.F, 16)
	b = append(b, '|')
	return strconv.AppendUint(b, f.G, 16)
}

// fragKeyLess orders fragments by their rendered keys, as strings.
func fragKeyLess(a, b Fragment) bool {
	var ab, bb [40]byte
	return bytes.Compare(appendFragKey(ab[:0], a), appendFragKey(bb[:0], b)) < 0
}

// Clone returns an independent copy.
func (c Cover) Clone() Cover {
	frags := make([]Fragment, len(c.Frags))
	copy(frags, c.Frags)
	return Cover{Q: c.Q, Frags: frags}
}

func (c Cover) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range c.Frags {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('{')
		first := true
		for a := 0; a < len(c.Q.Atoms); a++ {
			if f.F&(1<<uint(a)) != 0 {
				if !first {
					b.WriteString(", ")
				}
				first = false
				b.WriteString(c.Q.Atoms[a].String())
			}
		}
		b.WriteByte('}')
		if !f.IsSimple() {
			b.WriteString("‖{")
			first = true
			for a := 0; a < len(c.Q.Atoms); a++ {
				if f.G&(1<<uint(a)) != 0 {
					if !first {
						b.WriteString(", ")
					}
					first = false
					b.WriteString(c.Q.Atoms[a].String())
				}
			}
			b.WriteByte('}')
		}
	}
	b.WriteByte('}')
	return b.String()
}

// maskVars returns the set of variable names occurring in the atoms
// selected by mask.
func maskVars(q query.CQ, mask uint64) map[string]bool {
	out := make(map[string]bool)
	for i := 0; i < len(q.Atoms); i++ {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		for _, t := range q.Atoms[i].Args {
			if t.IsVar() {
				out[t.Name] = true
			}
		}
	}
	return out
}

// maskConnected reports whether the atoms selected by mask form a
// connected join graph.
func maskConnected(q query.CQ, mask uint64) bool {
	var idx []int
	for i := 0; i < len(q.Atoms); i++ {
		if mask&(1<<uint(i)) != 0 {
			idx = append(idx, i)
		}
	}
	if len(idx) <= 1 {
		return true
	}
	visited := map[int]bool{idx[0]: true}
	stack := []int{idx[0]}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, j := range idx {
			if !visited[j] && q.Atoms[i].SharesVar(q.Atoms[j]) {
				visited[j] = true
				stack = append(stack, j)
			}
		}
	}
	return len(visited) == len(idx)
}

// FragmentID identifies a fragment query among all the covers of one
// query: the fragment's own F and G, and the union of the other
// fragments' G-parts. FragmentQuery reads nothing else of the cover, so
// two covers of the same query agreeing on a fragment's ID give it the
// same query, name included. The cover search keys its fragment table
// on it: a move rebuilds only the fragments whose ID changed. In Lq and
// Gq the G-parts partition the atoms, so there the ID follows from F and
// G alone.
type FragmentID struct {
	F, G, Others uint64
}

// FragmentID returns the identity of fragment k's query.
func (c Cover) FragmentID(k int) FragmentID {
	id := FragmentID{F: c.Frags[k].F, G: c.Frags[k].G}
	for j, f := range c.Frags {
		if j != k {
			id.Others |= f.G
		}
	}
	return id
}

// FragmentQuery builds the (generalized) fragment query q|f‖g of
// fragment k w.r.t. the cover (Definitions 2 and 7): the body consists
// of the atoms in F; the head consists of the free variables of q
// appearing in the atoms of G, plus the variables of G shared with the
// G-part of another fragment. It is named after the first atom of G
// (q_f0, q_f2, …) rather than after k, so the same fragment has the
// same name in every cover it occurs in.
func (c Cover) FragmentQuery(k int) query.CQ {
	frag := c.Frags[k]
	gVars := maskVars(c.Q, frag.G)
	// Variables of other fragments' G-parts.
	otherG := make(map[string]bool)
	for j, f := range c.Frags {
		if j == k {
			continue
		}
		for v := range maskVars(c.Q, f.G) {
			otherG[v] = true
		}
	}
	var head []query.Term
	seen := make(map[string]bool)
	// Keep q's head order first for determinism, then shared join vars.
	for _, h := range c.Q.Head {
		if gVars[h.Name] && !seen[h.Name] {
			seen[h.Name] = true
			head = append(head, h)
		}
	}
	// Shared existential variables in a stable order: first occurrence
	// within the fragment's G atoms.
	for i := 0; i < len(c.Q.Atoms); i++ {
		if frag.G&(1<<uint(i)) == 0 {
			continue
		}
		for _, t := range c.Q.Atoms[i].Args {
			if t.IsVar() && otherG[t.Name] && !seen[t.Name] {
				seen[t.Name] = true
				head = append(head, t)
			}
		}
	}
	var atoms []query.Atom
	for i := 0; i < len(c.Q.Atoms); i++ {
		if frag.F&(1<<uint(i)) != 0 {
			atoms = append(atoms, c.Q.Atoms[i])
		}
	}
	return query.CQ{
		Name:  orName(c.Q.Name) + "_f" + strconv.Itoa(bits.TrailingZeros64(frag.G)),
		Head:  head,
		Atoms: atoms,
	}
}

func orName(n string) string {
	if n == "" {
		return "q"
	}
	return n
}

// SingleFragment returns the trivial one-fragment cover (always safe;
// its reformulation is exactly the plain CQ-to-UCQ one).
func SingleFragment(q query.CQ) Cover {
	mask := uint64(1)<<uint(len(q.Atoms)) - 1
	return Cover{Q: q, Frags: []Fragment{Simple(mask)}}
}

// IsSafe implements Definition 5: the cover must be a partition of the
// query atoms such that any two atoms whose predicates depend on a
// common concept or role name w.r.t. the TBox are in the same fragment.
// Generalized covers are "safe" when their G-parts satisfy this
// (Section 5.2 membership condition for Gq, first bullet).
func (c Cover) IsSafe(t *dllite.TBox) bool {
	if !c.IsPartition() {
		return false
	}
	n := len(c.Q.Atoms)
	fragOf := make([]int, n)
	for i := 0; i < n; i++ {
		fragOf[i] = -1
		for k, f := range c.Frags {
			if f.G&(1<<uint(i)) != 0 {
				fragOf[i] = k
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if fragOf[i] != fragOf[j] && t.DepShared(c.Q.Atoms[i].Pred, c.Q.Atoms[j].Pred) {
				return false
			}
		}
	}
	return true
}

// InGq reports whether the cover belongs to the generalized search
// space Gq (Section 5.2): its G-parts form a safe cover and every
// F-part is connected.
func (c Cover) InGq(t *dllite.TBox) bool {
	if !c.IsSafe(t) {
		return false
	}
	for _, f := range c.Frags {
		if !maskConnected(c.Q, f.F) {
			return false
		}
	}
	return true
}

// RootCover computes Croot (Definition 6): the finest safe cover,
// obtained by grouping atoms whose predicates transitively share
// dependencies.
func RootCover(q query.CQ, t *dllite.TBox) Cover {
	n := len(q.Atoms)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.DepShared(q.Atoms[i].Pred, q.Atoms[j].Pred) {
				union(i, j)
			}
		}
	}
	masks := make(map[int]uint64)
	var order []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := masks[r]; !ok {
			order = append(order, r)
		}
		masks[r] |= 1 << uint(i)
	}
	c := Cover{Q: q}
	for _, r := range order {
		c.Frags = append(c.Frags, Simple(masks[r]))
	}
	return c
}

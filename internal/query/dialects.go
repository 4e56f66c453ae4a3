package query

import (
	"sort"
	"strings"
)

// UCQ is a union of conjunctive queries with identical head arity
// (Table 4). The head of the UCQ is the head of its first disjunct; all
// disjuncts are expected to use the same head variable names (the
// reformulation algorithms guarantee this).
type UCQ struct {
	Name      string
	Disjuncts []CQ
}

// Head returns the shared head of the union, or nil if empty.
func (u UCQ) Head() []Term {
	if len(u.Disjuncts) == 0 {
		return nil
	}
	return u.Disjuncts[0].Head
}

// Dedup removes disjuncts with identical canonical keys, preserving
// first occurrences.
func (u UCQ) Dedup() UCQ {
	seen := make(map[string]bool, len(u.Disjuncts))
	out := make([]CQ, 0, len(u.Disjuncts))
	for _, d := range u.Disjuncts {
		k := CanonicalKey(d)
		if !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return UCQ{Name: u.Name, Disjuncts: out}
}

// Minimize removes disjuncts contained in another disjunct, yielding an
// equivalent, non-redundant UCQ (Section 2.3). When two disjuncts are
// equivalent, the earlier one survives.
func (u UCQ) Minimize() UCQ {
	ds := u.Dedup().Disjuncts
	keep := make([]bool, len(ds))
	for i := range keep {
		keep[i] = true
	}
	for i := range ds {
		if !keep[i] {
			continue
		}
		for j := range ds {
			if i == j || !keep[j] {
				continue
			}
			if ContainedIn(ds[j], ds[i]) {
				// ds[j] is redundant given ds[i] — unless the two are
				// equivalent and ds[j] is preferable (fewer atoms, or
				// same size and earlier); then drop ds[i] instead.
				if ContainedIn(ds[i], ds[j]) &&
					(len(ds[j].Atoms) < len(ds[i].Atoms) ||
						(len(ds[j].Atoms) == len(ds[i].Atoms) && j < i)) {
					keep[i] = false
					break
				}
				keep[j] = false
			}
		}
	}
	out := make([]CQ, 0, len(ds))
	for i, d := range ds {
		if keep[i] {
			out = append(out, d)
		}
	}
	return UCQ{Name: u.Name, Disjuncts: out}
}

func (u UCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		parts[i] = "(" + d.String() + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// SCQ is a semi-conjunctive query (Table 4): a join of unions of
// single-atom queries. Block i is a disjunction of atoms sharing the
// same variable pattern; the SCQ is the conjunction of its blocks. Head
// and existential variables are interpreted exactly as in a CQ whose
// atoms are one choice per block.
type SCQ struct {
	Name   string
	Head   []Term
	Blocks [][]Atom
}

// Expand converts the SCQ to the equivalent UCQ by distributing ∧ over ∨.
// It is used for correctness tests and as an evaluation fallback; the
// engine evaluates SCQs directly without expansion.
func (s SCQ) Expand() UCQ {
	out := []CQ{{Name: s.Name, Head: s.Head}}
	for _, block := range s.Blocks {
		next := make([]CQ, 0, len(out)*len(block))
		for _, partial := range out {
			for _, a := range block {
				atoms := make([]Atom, len(partial.Atoms), len(partial.Atoms)+1)
				copy(atoms, partial.Atoms)
				next = append(next, CQ{Name: s.Name, Head: s.Head, Atoms: append(atoms, a)})
			}
		}
		out = next
	}
	return UCQ{Name: s.Name, Disjuncts: out}
}

// NumChoices returns the number of CQs the SCQ stands for (the product
// of block sizes).
func (s SCQ) NumChoices() int {
	n := 1
	for _, b := range s.Blocks {
		n *= len(b)
	}
	return n
}

func (s SCQ) String() string {
	var b strings.Builder
	name := s.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name)
	b.WriteByte('(')
	for i, h := range s.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(h.String())
	}
	b.WriteString(") ← ")
	for i, block := range s.Blocks {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteByte('(')
		for j, a := range block {
			if j > 0 {
				b.WriteString(" ∨ ")
			}
			b.WriteString(a.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// USCQ is a union of SCQs (Table 4).
type USCQ struct {
	Name      string
	Disjuncts []SCQ
}

// Expand converts the USCQ to the equivalent UCQ.
func (u USCQ) Expand() UCQ {
	var out []CQ
	for _, s := range u.Disjuncts {
		out = append(out, s.Expand().Disjuncts...)
	}
	return UCQ{Name: u.Name, Disjuncts: out}
}

func (u USCQ) String() string {
	parts := make([]string, len(u.Disjuncts))
	for i, s := range u.Disjuncts {
		parts[i] = "(" + s.String() + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// JUCQ is a join of UCQs (Table 4): the cover-based reformulation shape
// of Definition 3. Head holds the free variables of the overall query;
// the subqueries join on equality of identically named head variables.
type JUCQ struct {
	Name string
	Head []Term
	Subs []UCQ
}

func (j JUCQ) String() string {
	var b strings.Builder
	name := j.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name)
	b.WriteByte('(')
	for i, h := range j.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(h.String())
	}
	b.WriteString(") ← ")
	for i, s := range j.Subs {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		b.WriteString("[" + s.String() + "]")
	}
	return b.String()
}

// JUSCQ is a join of USCQs (Table 4).
type JUSCQ struct {
	Name string
	Head []Term
	Subs []USCQ
}

func (j JUSCQ) String() string {
	var b strings.Builder
	name := j.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name)
	b.WriteByte('(')
	for i, h := range j.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(h.String())
	}
	b.WriteString(") ← ")
	for i, s := range j.Subs {
		if i > 0 {
			b.WriteString(" ⋈ ")
		}
		b.WriteString("[" + s.String() + "]")
	}
	return b.String()
}

// FactorizeUCQ compresses a UCQ into an equivalent USCQ by exact
// cartesian factorization: disjuncts are grouped by their
// predicate-blind structure (same atom count, same variable pattern);
// a group factors into one SCQ when it contains exactly the cartesian
// product of its per-position predicate choices. Residual disjuncts
// become singleton SCQs. The result is always equivalent to the input.
func FactorizeUCQ(u UCQ) USCQ {
	type group struct {
		pattern string
		qs      []CQ
	}
	groups := make(map[string]*group)
	var order []string
	for _, d := range u.Disjuncts {
		p := patternKey(d)
		g, ok := groups[p]
		if !ok {
			g = &group{pattern: p}
			groups[p] = g
			order = append(order, p)
		}
		g.qs = append(g.qs, d)
	}
	var out []SCQ
	for _, p := range order {
		out = append(out, factorGroup(u.Name, groups[p].qs)...)
	}
	return USCQ{Name: u.Name, Disjuncts: out}
}

// patternKey renders a disjunct with predicates erased and atoms in
// their original order, with variables canonically renamed; two
// disjuncts with the same key differ only in predicate names per
// position. Atom order is preserved (not sorted) so that "position"
// is well defined within a group.
func patternKey(q CQ) string {
	headIdx := make(map[string]int)
	for i, h := range q.Head {
		if _, ok := headIdx[h.Name]; !ok {
			headIdx[h.Name] = i
		}
	}
	rename := make(map[string]string)
	next := 0
	var b strings.Builder
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteByte('&')
		}
		b.WriteByte('#') // predicate erased
		b.WriteByte('(')
		for j, t := range a.Args {
			if j > 0 {
				b.WriteByte(',')
			}
			switch {
			case t.Const:
				b.Write(appendConstKey(nil, t))
			default:
				if k, ok := headIdx[t.Name]; ok {
					b.WriteString("$h")
					b.WriteString(itoa(k))
				} else {
					r, ok := rename[t.Name]
					if !ok {
						r = "$v" + itoa(next)
						next++
						rename[t.Name] = r
					}
					b.WriteString(r)
				}
			}
		}
		b.WriteByte(')')
	}
	b.WriteString("||H")
	b.WriteString(itoa(len(q.Head)))
	return b.String()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// factorGroup factors a set of same-pattern disjuncts into SCQs.
func factorGroup(name string, qs []CQ) []SCQ {
	if len(qs) == 0 {
		return nil
	}
	n := len(qs[0].Atoms)
	// Predicate choices per position.
	choices := make([][]string, n)
	seen := make([]map[string]bool, n)
	for i := range choices {
		seen[i] = make(map[string]bool)
	}
	for _, q := range qs {
		for i, a := range q.Atoms {
			if !seen[i][a.Pred] {
				seen[i][a.Pred] = true
				choices[i] = append(choices[i], a.Pred)
			}
		}
	}
	product := 1
	for i := range choices {
		sort.Strings(choices[i])
		product *= len(choices[i])
	}
	if product == len(qs) && allCombosPresent(qs, choices) {
		// Exact cartesian product: one SCQ using the first disjunct's
		// variable pattern per position.
		base := qs[0]
		blocks := make([][]Atom, n)
		for i := 0; i < n; i++ {
			for _, p := range choices[i] {
				blocks[i] = append(blocks[i], Atom{Pred: p, Args: base.Atoms[i].Args})
			}
		}
		return []SCQ{{Name: name, Head: base.Head, Blocks: blocks}}
	}
	// Residual: singleton SCQs.
	out := make([]SCQ, len(qs))
	for i, q := range qs {
		blocks := make([][]Atom, len(q.Atoms))
		for j, a := range q.Atoms {
			blocks[j] = []Atom{a}
		}
		out[i] = SCQ{Name: name, Head: q.Head, Blocks: blocks}
	}
	return out
}

func allCombosPresent(qs []CQ, choices [][]string) bool {
	present := make(map[string]bool, len(qs))
	for _, q := range qs {
		var b strings.Builder
		for _, a := range q.Atoms {
			b.WriteString(a.Pred)
			b.WriteByte('|')
		}
		present[b.String()] = true
	}
	if len(present) != len(qs) {
		return false // duplicate predicate combos with different patterns
	}
	// Enumerate the product and check membership.
	idx := make([]int, len(choices))
	for {
		var b strings.Builder
		for i := range choices {
			b.WriteString(choices[i][idx[i]])
			b.WriteByte('|')
		}
		if !present[b.String()] {
			return false
		}
		// advance
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return true
		}
	}
}

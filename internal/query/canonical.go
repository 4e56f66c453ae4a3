package query

import (
	"bytes"
	"sort"
	"strconv"
)

// CanonicalKey returns a string identifying q up to renaming of
// existential variables and reordering of body atoms. Head variables are
// identified by position. Unbound existential variables (occurring once,
// not in the head) are all rendered as "_".
//
// The key is used by PerfectRef to deduplicate generated CQs. It is a
// sound over-approximation: equal keys imply isomorphic queries, while a
// few isomorphic queries with pathological symmetries may receive
// different keys. That only costs redundant (still correct) disjuncts,
// which downstream minimization removes.
func CanonicalKey(q CQ) string {
	var buf [256]byte
	return string(AppendCanonicalKey(buf[:0], q))
}

// BodyVar is one variable of a query body, as IndexBody reports it.
type BodyVar struct {
	Name string
	Head int // first head position carrying the name, -1 if none
	Occ  int // occurrences in the body
}

// IndexBody resolves the body of q to small integers, for passes that
// would otherwise hash variable names over and over: vars lists the
// distinct body variables in order of first occurrence, and
// refs[starts[i]:starts[i+1]] gives, for each argument of atom i, its
// index into vars, or -1 for a constant. The three results are appended
// to the buffers passed in, so a caller holding small arrays indexes a
// typical query (a handful of atoms) without allocating.
func (q CQ) IndexBody(vars []BodyVar, refs, starts []int) ([]BodyVar, []int, []int) {
	for _, a := range q.Atoms {
		starts = append(starts, len(refs))
		for _, t := range a.Args {
			if t.Const {
				refs = append(refs, -1)
				continue
			}
			k := 0
			for k < len(vars) && vars[k].Name != t.Name {
				k++
			}
			if k == len(vars) {
				vars = append(vars, BodyVar{Name: t.Name, Head: headPos(q.Head, t.Name)})
			}
			vars[k].Occ++
			refs = append(refs, k)
		}
	}
	return vars, refs, append(starts, len(refs))
}

// AppendCanonicalKey appends CanonicalKey(q) to dst and returns the
// extended buffer. PerfectRef generates far more CQs than it keeps;
// rendering into a reused buffer lets it look a candidate up without
// allocating anything for the ones it has already seen.
//
// Both renderings below work off IndexBody's indexes: no map, no
// per-atom string.
func AppendCanonicalKey(dst []byte, q CQ) []byte {
	var (
		varsBuf   [16]BodyVar
		renameBuf [16]int
		refsBuf   [32]int
		startsBuf [17]int
		orderBuf  [16]int
		endsBuf   [16]int
		blindBuf  [256]byte
	)
	vars, refs, starts := q.IndexBody(varsBuf[:0], refsBuf[:0], startsBuf[:0])
	// rename[k] is variable k's $v number in the rendering in progress,
	// -1 while it has none.
	rename := append(renameBuf[:0], make([]int, len(vars))...)

	// Pass 1: sort atoms by a variable-name-blind rendering (shared
	// existentials as "*"), all renderings laid end to end in one buffer.
	blind, ends, order := blindBuf[:0], endsBuf[:0], orderBuf[:0]
	for i, a := range q.Atoms {
		blind = appendCanonAtom(blind, a, refs[starts[i]:starts[i+1]], vars, nil, nil)
		ends = append(ends, len(blind))
		order = append(order, i)
	}
	blindOf := func(i int) []byte {
		if i == 0 {
			return blind[:ends[0]]
		}
		return blind[ends[i-1]:ends[i]]
	}
	if len(order) <= 12 {
		// What sort.Slice does at this size: a stable insertion sort.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && bytes.Compare(blindOf(order[j]), blindOf(order[j-1])) < 0; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	} else {
		// sort.Slice boxes its argument; sorting a heap copy keeps the
		// common case's order buffer on the stack.
		big := append([]int(nil), order...)
		sort.Slice(big, func(i, j int) bool { return bytes.Compare(blindOf(big[i]), blindOf(big[j])) < 0 })
		copy(order, big)
	}

	dst = append(dst, 'H')
	dst = strconv.AppendInt(dst, int64(len(q.Head)), 10)
	for _, h := range q.Head {
		// repeated head variables matter: q(x,x) differs from q(x,y)
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(headPos(q.Head, h.Name)), 10)
	}
	dst = append(dst, "::"...)
	body := len(dst)
	render := func(b []byte) []byte {
		for k := range rename {
			rename[k] = -1
		}
		next := 0
		for k, i := range order {
			if k > 0 {
				b = append(b, '&')
			}
			b = appendCanonAtom(b, q.Atoms[i], refs[starts[i]:starts[i+1]], vars, rename, &next)
		}
		return b
	}
	dst = render(dst)

	// Pass 2: shared existential variable names depend on the atom
	// order, and atoms with equal blind renderings may be ordered either
	// way. To make the key exact, minimize the rendered body over all
	// permutations within tie groups (groups are tiny in practice; a
	// global cap falls back to the sorted order for pathological cases,
	// which costs only duplicate — still correct — disjuncts upstream).
	// Most queries have no tie group and stop here.
	groups := tieRuns(len(order), func(i, j int) bool { return bytes.Equal(blindOf(order[i]), blindOf(order[j])) })
	perms := 1
	for _, g := range groups {
		perms *= factorialCapped(g[1] - g[0])
		if perms > 20000 {
			break
		}
	}
	if perms > 1 && perms <= 20000 {
		var alt []byte
		permuteGroups(order, groups, 0, func() {
			alt = render(alt[:0])
			if bytes.Compare(alt, dst[body:]) < 0 {
				dst = append(dst[:body], alt...)
			}
		})
	}
	return dst
}

// headPos returns the first head position whose term carries the name,
// or -1.
func headPos(head []Term, name string) int {
	for i, h := range head {
		if h.Name == name {
			return i
		}
	}
	return -1
}

// appendCanonAtom renders one atom: constants and parameters as
// appendConstKey writes them, head variables by position, unbound
// variables as "_", and shared existentials either as "*" (next == nil:
// the name-blind rendering) or numbered in order of first appearance,
// the numbers handed out so far being in rename.
func appendCanonAtom(b []byte, a Atom, refs []int, vars []BodyVar, rename []int, next *int) []byte {
	b = append(b, a.Pred...)
	b = append(b, '(')
	for j, t := range a.Args {
		if j > 0 {
			b = append(b, ',')
		}
		if t.Const {
			b = appendConstKey(b, t)
			continue
		}
		k := refs[j]
		switch {
		case vars[k].Head >= 0:
			b = append(b, "$h"...)
			b = strconv.AppendInt(b, int64(vars[k].Head), 10)
		case vars[k].Occ <= 1:
			b = append(b, '_')
		case next == nil:
			b = append(b, '*')
		default:
			if rename[k] < 0 {
				rename[k] = *next
				*next++
			}
			b = append(b, "$v"...)
			b = strconv.AppendInt(b, int64(rename[k]), 10)
		}
	}
	return append(b, ')')
}

// tieRuns returns [start,end) index ranges of maximal runs of length > 1
// where eq holds between consecutive elements.
func tieRuns(n int, eq func(i, j int) bool) [][2]int {
	var runs [][2]int
	i := 0
	for i < n {
		j := i + 1
		for j < n && eq(j-1, j) {
			j++
		}
		if j-i > 1 {
			runs = append(runs, [2]int{i, j})
		}
		i = j
	}
	return runs
}

func factorialCapped(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
		if f > 20000 {
			return f
		}
	}
	return f
}

// permuteGroups enumerates all orderings of base obtained by permuting
// indices within each tie group, invoking visit for each ordering.
// base is mutated in place and restored between calls.
func permuteGroups(base []int, groups [][2]int, g int, visit func()) {
	if g == len(groups) {
		visit()
		return
	}
	lo, hi := groups[g][0], groups[g][1]
	permuteRange(base, lo, hi, func() {
		permuteGroups(base, groups, g+1, visit)
	})
}

// permuteRange enumerates permutations of base[lo:hi] (Heap's algorithm),
// calling f for each; base is restored afterwards.
func permuteRange(base []int, lo, hi int, f func()) {
	n := hi - lo
	if n <= 1 {
		f()
		return
	}
	var heap func(k int)
	heap = func(k int) {
		if k == 1 {
			f()
			return
		}
		for i := 0; i < k; i++ {
			heap(k - 1)
			if k%2 == 0 {
				base[lo+i], base[lo+k-1] = base[lo+k-1], base[lo+i]
			} else {
				base[lo], base[lo+k-1] = base[lo+k-1], base[lo]
			}
		}
	}
	heap(n)
}

// FreshVarGen hands out variable names guaranteed not to clash with an
// existing set of names.
type FreshVarGen struct {
	used map[string]bool
	n    int
}

// NewFreshVarGen builds a generator avoiding every variable name
// occurring in the given queries.
func NewFreshVarGen(qs ...CQ) *FreshVarGen {
	g := &FreshVarGen{used: make(map[string]bool)}
	for _, q := range qs {
		for _, h := range q.Head {
			g.used[h.Name] = true
		}
		for _, v := range q.Vars() {
			g.used[v] = true
		}
	}
	return g
}

// Reserve marks a name as taken.
func (g *FreshVarGen) Reserve(name string) { g.used[name] = true }

// Fresh returns a new variable term with an unused name.
func (g *FreshVarGen) Fresh() Term {
	for {
		name := "_u" + strconv.Itoa(g.n)
		g.n++
		if !g.used[name] {
			g.used[name] = true
			return Var(name)
		}
	}
}

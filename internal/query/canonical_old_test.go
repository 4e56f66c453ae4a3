package query

// The string-building CanonicalKey this package shipped before the
// buffer-based one, kept test-only as the oracle of the differential
// and fuzz tests: the two must agree byte for byte.

import (
	"sort"
	"strconv"
	"strings"
)

// canonicalKeyOld is the reference implementation.
func canonicalKeyOld(q CQ) string {
	headIdx := make(map[string]int, len(q.Head))
	for i, h := range q.Head {
		if _, ok := headIdx[h.Name]; !ok {
			headIdx[h.Name] = i
		}
	}
	occ := q.VarOccurrences()

	// Pass 1: sort atoms by a variable-name-blind key, remembering the
	// groups of atoms whose blind keys tie.
	type entry struct {
		atom  Atom
		blind string
	}
	entries := make([]entry, len(q.Atoms))
	for i, a := range q.Atoms {
		entries[i] = entry{atom: a, blind: blindKeyOld(a, headIdx, occ)}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].blind < entries[j].blind })

	// Pass 2: shared existential variable names depend on the atom
	// order, and atoms with equal blind keys may be ordered either way.
	// To make the key exact, minimize the rendered body over all
	// permutations within tie groups (groups are tiny in practice; a
	// global cap falls back to the stable order for pathological cases,
	// which costs only duplicate — still correct — disjuncts upstream).
	groups := tieRunsOld(len(entries), func(i, j int) bool { return entries[i].blind == entries[j].blind })
	perms := 1
	for _, g := range groups {
		perms *= factorialCappedOld(g[1] - g[0])
		if perms > 20000 {
			break
		}
	}
	render := func(order []int) string {
		rename := make(map[string]string)
		next := 0
		var b strings.Builder
		for k, idx := range order {
			if k > 0 {
				b.WriteByte('&')
			}
			a := entries[idx].atom
			b.WriteString(a.Pred)
			b.WriteByte('(')
			for j, t := range a.Args {
				if j > 0 {
					b.WriteByte(',')
				}
				switch {
				case t.Param:
					b.WriteString(t.Name)
				case t.Const:
					b.WriteString("'" + strings.ReplaceAll(t.Name, "'", "''") + "'")
				default:
					if i, ok := headIdx[t.Name]; ok {
						b.WriteString("$h" + strconv.Itoa(i))
					} else if occ[t.Name] <= 1 {
						b.WriteString("_")
					} else {
						r, ok := rename[t.Name]
						if !ok {
							r = "$v" + strconv.Itoa(next)
							next++
							rename[t.Name] = r
						}
						b.WriteString(r)
					}
				}
			}
			b.WriteByte(')')
		}
		return b.String()
	}
	base := make([]int, len(entries))
	for i := range base {
		base[i] = i
	}
	best := render(base)
	if perms > 1 && perms <= 20000 {
		permuteGroupsOld(base, groups, 0, func(order []int) {
			if s := render(order); s < best {
				best = s
			}
		})
	}
	var b strings.Builder
	b.WriteString("H")
	b.WriteString(strconv.Itoa(len(q.Head)))
	for _, h := range q.Head {
		// repeated head variables matter: q(x,x) differs from q(x,y)
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(headIdx[h.Name]))
	}
	b.WriteString("::")
	b.WriteString(best)
	return b.String()
}

// tieRunsOld returns [start,end) index ranges of maximal runs of length > 1
// where eq holds between consecutive elements.
func tieRunsOld(n int, eq func(i, j int) bool) [][2]int {
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

func factorialCappedOld(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
		if f > 20000 {
			return f
		}
	}
	return f
}

// permuteGroupsOld enumerates all orderings of base obtained by permuting
// indices within each tie group, invoking visit for each ordering.
// base is mutated in place and restored between calls.
func permuteGroupsOld(base []int, groups [][2]int, g int, visit func([]int)) {
	if g == len(groups) {
		visit(base)
		return
	}
	lo, hi := groups[g][0], groups[g][1]
	permuteRangeOld(base, lo, hi, func() {
		permuteGroupsOld(base, groups, g+1, visit)
	})
}

// permuteRangeOld enumerates permutations of base[lo:hi] (Heap's algorithm),
// calling f for each; base is restored afterwards.
func permuteRangeOld(base []int, lo, hi int, f func()) {
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

func blindKeyOld(a Atom, headIdx map[string]int, occ map[string]int) string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for j, t := range a.Args {
		if j > 0 {
			b.WriteByte(',')
		}
		switch {
		case t.Param:
			b.WriteString(t.Name)
		case t.Const:
			b.WriteString("'" + strings.ReplaceAll(t.Name, "'", "''") + "'")
		default:
			if i, ok := headIdx[t.Name]; ok {
				b.WriteString("$h" + strconv.Itoa(i))
			} else if occ[t.Name] <= 1 {
				b.WriteString("_")
			} else {
				b.WriteString("*") // shared existential: name-blind
			}
		}
	}
	b.WriteByte(')')
	return b.String()
}

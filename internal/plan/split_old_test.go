package plan

import "repro/internal/query"

// splitReducersOld is the classification this package shipped before
// the occurrence-count pass — it rebuilds the set of core variables for
// every atom — kept test-only as the oracle the new one is tabled
// against.
func splitReducersOld(q query.CQ) (core, reducers []int) {
	n := len(q.Atoms)
	head := make(map[string]bool, len(q.Head))
	for _, h := range q.Head {
		head[h.Name] = true
	}
	occ := q.VarOccurrences()
	inCore := make([]bool, n)
	coreLeft := n
	for i := range inCore {
		inCore[i] = true
	}
	varsOf := func(i int) []string {
		var vs []string
		for _, t := range q.Atoms[i].Args {
			if t.IsVar() {
				vs = append(vs, t.Name)
			}
		}
		return vs
	}
	coreVars := func(skip int) map[string]bool {
		m := map[string]bool{}
		for k := 0; k < n; k++ {
			if k == skip || !inCore[k] {
				continue
			}
			for _, v := range varsOf(k) {
				m[v] = true
			}
		}
		return m
	}
	for i := n - 1; i >= 0; i-- {
		if coreLeft <= 1 {
			break
		}
		cv := coreVars(i)
		shares := false
		private := false
		reducible := true
		for _, v := range varsOf(i) {
			if cv[v] {
				shares = true
				continue
			}
			// A variable not bound by the rest of the core must be
			// private to this atom and invisible in the head.
			if head[v] || occ[v] > countInAtomOld(q.Atoms[i], v) {
				reducible = false
				break
			}
			private = true
		}
		if shares && private && reducible {
			inCore[i] = false
			coreLeft--
		}
	}
	for i := 0; i < n; i++ {
		if inCore[i] {
			core = append(core, i)
		} else {
			reducers = append(reducers, i)
		}
	}
	return core, reducers
}

// countInAtomOld counts occurrences of variable v in atom a.
func countInAtomOld(a query.Atom, v string) int {
	c := 0
	for _, t := range a.Args {
		if t.IsVar() && t.Name == v {
			c++
		}
	}
	return c
}

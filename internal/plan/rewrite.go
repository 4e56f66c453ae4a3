package plan

// Backend-neutral rewrite rules over the logical IR. Rewrites run before
// lowering (core.Answerer applies them uniformly, so every backend
// compiles the simplified tree) and preserve Extract semantics: the
// dialect query recovered from a rewritten tree is the same query.

// Rewrite applies the simplification rules bottom-up until none fires:
//
//   - single-arm Union collapse: Union(x) → x. A one-disjunct UCQ —
//     the common case for unreformulated queries and most cover
//     fragments — needs no union operator at all.
//   - nested Project merge: Project(h1, Project(h2, body)) →
//     Project(h1, body) when h1 resolves through h2 (every h1 variable
//     is named by an h2 variable; constants pass through).
//
// Nodes are immutable, so Rewrite returns a new tree where anything
// changed and the original node where nothing did.
func Rewrite(n *Node) *Node {
	if n == nil {
		return nil
	}
	changed := false
	inputs := n.Inputs
	for i, in := range n.Inputs {
		r := Rewrite(in)
		if r != in {
			if !changed {
				inputs = make([]*Node, len(n.Inputs))
				copy(inputs, n.Inputs)
				changed = true
			}
			inputs[i] = r
		}
	}
	if changed {
		m := *n
		m.Inputs = inputs
		n = &m
	}
	if n.Op == OpUnion && len(n.Inputs) == 1 {
		return n.Inputs[0]
	}
	if n.Op == OpProject && len(n.Inputs) == 1 && n.Inputs[0].Op == OpProject {
		if m, ok := mergeProjects(n, n.Inputs[0]); ok {
			return m
		}
	}
	return n
}

// mergeProjects composes two stacked projections into one. The outer
// head addresses the inner's output columns by variable name, so the
// merge is sound exactly when every outer variable is the name of an
// inner head variable (then it denotes the same body column) and no
// inner head term is a constant (constant columns have no name the
// outer head could be rebound to).
func mergeProjects(outer, inner *Node) (*Node, bool) {
	if len(inner.Inputs) != 1 {
		return nil, false
	}
	innerVars := make(map[string]bool, len(inner.Head))
	for _, t := range inner.Head {
		if !t.IsVar() {
			return nil, false
		}
		innerVars[t.Name] = true
	}
	for _, t := range outer.Head {
		if t.IsVar() && !innerVars[t.Name] {
			return nil, false
		}
	}
	m := &Node{
		Op:         OpProject,
		Head:       outer.Head,
		Name:       outer.Name,
		Factorized: inner.Factorized,
		Inputs:     inner.Inputs,
	}
	if m.Name == "" {
		m.Name = inner.Name
	}
	return m, true
}

// NodeCount returns the number of nodes in the tree (rewrite
// diagnostics and tests).
func NodeCount(n *Node) int {
	if n == nil {
		return 0
	}
	c := 1
	for _, in := range n.Inputs {
		c += NodeCount(in)
	}
	return c
}

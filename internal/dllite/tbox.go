package dllite

import (
	"fmt"
	"sort"
	"sync"
)

// AxiomKind distinguishes the four DL-LiteR constraint families.
type AxiomKind int

const (
	// ConceptInclusion is B1 ⊑ B2.
	ConceptInclusion AxiomKind = iota
	// ConceptDisjointness is B1 ⊑ ¬B2.
	ConceptDisjointness
	// RoleInclusion is R1 ⊑ R2.
	RoleInclusion
	// RoleDisjointness is R1 ⊑ ¬R2.
	RoleDisjointness
)

// Axiom is a DL-LiteR TBox constraint. Concept axioms use LC/RC; role
// axioms use LR/RR. Negation may only occur on the right-hand side
// (Section 2.1); it is encoded by the Kind.
type Axiom struct {
	Kind   AxiomKind
	LC, RC Concept
	LR, RR Role
}

// CIncl builds the positive concept inclusion l ⊑ r.
func CIncl(l, r Concept) Axiom { return Axiom{Kind: ConceptInclusion, LC: l, RC: r} }

// CDisj builds the negative concept inclusion l ⊑ ¬r.
func CDisj(l, r Concept) Axiom { return Axiom{Kind: ConceptDisjointness, LC: l, RC: r} }

// RIncl builds the positive role inclusion l ⊑ r.
func RIncl(l, r Role) Axiom { return Axiom{Kind: RoleInclusion, LR: l, RR: r} }

// RDisj builds the negative role inclusion l ⊑ ¬r.
func RDisj(l, r Role) Axiom { return Axiom{Kind: RoleDisjointness, LR: l, RR: r} }

// IsNegative reports whether the axiom's right-hand side is negated.
func (a Axiom) IsNegative() bool {
	return a.Kind == ConceptDisjointness || a.Kind == RoleDisjointness
}

func (a Axiom) String() string {
	switch a.Kind {
	case ConceptInclusion:
		return fmt.Sprintf("%s ⊑ %s", a.LC, a.RC)
	case ConceptDisjointness:
		return fmt.Sprintf("%s ⊑ ¬%s", a.LC, a.RC)
	case RoleInclusion:
		return fmt.Sprintf("%s ⊑ %s", a.LR, a.RR)
	default:
		return fmt.Sprintf("%s ⊑ ¬%s", a.LR, a.RR)
	}
}

// TBox is a set of DL-LiteR axioms over declared concept and role names.
// Lookup indexes used by the reformulation algorithms are built lazily
// and cached; a TBox must not be mutated after first use.
type TBox struct {
	Axioms []Axiom

	concepts map[string]bool
	roles    map[string]bool

	depOnce sync.Once
	dep     map[string]map[string]bool // Definition 4, computed on demand
}

// NewTBox builds a TBox from axioms, inferring the vocabulary and
// validating that no name is used both as a concept and as a role.
func NewTBox(axioms []Axiom) (*TBox, error) {
	t := &TBox{
		Axioms:   axioms,
		concepts: make(map[string]bool),
		roles:    make(map[string]bool),
	}
	addC := func(c Concept) {
		if c.Exists {
			t.roles[c.Role.Name] = true
		} else {
			t.concepts[c.Name] = true
		}
	}
	for _, ax := range axioms {
		switch ax.Kind {
		case ConceptInclusion, ConceptDisjointness:
			addC(ax.LC)
			addC(ax.RC)
		case RoleInclusion, RoleDisjointness:
			t.roles[ax.LR.Name] = true
			t.roles[ax.RR.Name] = true
		}
	}
	for name := range t.concepts {
		if t.roles[name] {
			return nil, fmt.Errorf("dllite: %q used both as concept and as role", name)
		}
	}
	return t, nil
}

// MustTBox is NewTBox panicking on error, for fixtures.
func MustTBox(axioms []Axiom) *TBox {
	t, err := NewTBox(axioms)
	if err != nil {
		panic(err)
	}
	return t
}

// ConceptNames returns the sorted declared concept names.
func (t *TBox) ConceptNames() []string { return sortedKeys(t.concepts) }

// RoleNames returns the sorted declared role names.
func (t *TBox) RoleNames() []string { return sortedKeys(t.roles) }

// NumConstraints returns the number of axioms.
func (t *TBox) NumConstraints() int { return len(t.Axioms) }

// PositiveAxioms returns the negation-free axioms (used by reformulation).
func (t *TBox) PositiveAxioms() []Axiom {
	out := make([]Axiom, 0, len(t.Axioms))
	for _, ax := range t.Axioms {
		if !ax.IsNegative() {
			out = append(out, ax)
		}
	}
	return out
}

// NegativeAxioms returns the disjointness axioms (used by consistency).
func (t *TBox) NegativeAxioms() []Axiom {
	var out []Axiom
	for _, ax := range t.Axioms {
		if ax.IsNegative() {
			out = append(out, ax)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Dep returns dep(name) per Definition 4: the set of concept and role
// names on which name depends w.r.t. the TBox, i.e. the fixpoint of
// following positive axioms Y ⊑ X backward from X-sides whose cr(X) is
// already in the set. The result always contains name itself. Safe for
// concurrent use: the lazy dep computation runs exactly once.
func (t *TBox) Dep(name string) map[string]bool {
	t.depOnce.Do(t.computeDeps)
	if d, ok := t.dep[name]; ok {
		return d
	}
	// Name without any axiom: depends only on itself.
	return map[string]bool{name: true}
}

// DepShared reports whether two predicate names depend on a common
// concept or role name (the Definition 5 safety test).
func (t *TBox) DepShared(a, b string) bool {
	da, db := t.Dep(a), t.Dep(b)
	if len(db) < len(da) {
		da, db = db, da
	}
	for n := range da {
		if db[n] {
			return true
		}
	}
	return false
}

// computeDeps materializes dep(·) for every declared name by a BFS over
// the reversed positive-inclusion graph: an edge cr(X) → cr(Y) exists
// for each positive axiom Y ⊑ X.
func (t *TBox) computeDeps() {
	edges := make(map[string][]string) // cr(RHS) -> cr(LHS)
	addEdge := func(rhs, lhs string) {
		edges[rhs] = append(edges[rhs], lhs)
	}
	for _, ax := range t.PositiveAxioms() {
		switch ax.Kind {
		case ConceptInclusion:
			addEdge(ax.RC.PredName(), ax.LC.PredName())
		case RoleInclusion:
			addEdge(ax.RR.Name, ax.LR.Name)
		}
	}
	t.dep = make(map[string]map[string]bool)
	var names []string
	names = append(names, t.ConceptNames()...)
	names = append(names, t.RoleNames()...)
	for _, n := range names {
		set := map[string]bool{n: true}
		queue := []string{n}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nxt := range edges[cur] {
				if !set[nxt] {
					set[nxt] = true
					queue = append(queue, nxt)
				}
			}
		}
		t.dep[n] = set
	}
}

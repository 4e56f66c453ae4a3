// Package reformulate implements FOL reformulation of conjunctive
// queries w.r.t. DL-LiteR TBoxes: the pioneering CQ-to-UCQ technique of
// Calvanese et al. (PerfectRef) that the paper builds on (Section 2.2),
// and a CQ-to-USCQ variant obtained by exact factorization of the UCQ
// (Section 2.2, [33]).
package reformulate

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dllite"
	"repro/internal/query"
)

// DefaultMaxQueries bounds the number of CQs generated during a single
// reformulation; DL-LiteR guarantees termination, but the bound turns
// accidental exponential blowups into errors instead of hangs.
const DefaultMaxQueries = 200000

// Reformulator compiles DL-LiteR TBox constraints into queries. It
// pre-indexes the positive axioms by their right-hand side, so a single
// Reformulator should be reused across queries over the same TBox.
// Reformulator is safe for concurrent use: the axiom indexes are
// read-only after New, and the internal memo is mutex-guarded (two
// goroutines may redundantly reformulate the same fresh query; the
// results are identical and one wins the memo slot).
type Reformulator struct {
	T          *dllite.TBox
	MaxQueries int

	conceptRHS map[string][]dllite.Axiom  // B ⊑ A, indexed by A
	existsRHS  map[roleKey][]dllite.Axiom // B ⊑ ∃R(⁻), indexed by R(⁻)
	roleRHS    map[string][]dllite.Axiom  // R1 ⊑ R2(⁻), indexed by name(R2)

	mu   sync.Mutex
	memo map[string]query.UCQ // canonical CQ key -> reformulation
}

// memoGet looks up a memoized reformulation under the mutex.
func (r *Reformulator) memoGet(key string) (query.UCQ, bool) {
	r.mu.Lock()
	u, ok := r.memo[key]
	r.mu.Unlock()
	return u, ok
}

// memoPut stores a memoized reformulation under the mutex.
func (r *Reformulator) memoPut(key string, u query.UCQ) {
	r.mu.Lock()
	r.memo[key] = u
	r.mu.Unlock()
}

type roleKey struct {
	name string
	inv  bool
}

// New builds a Reformulator for the TBox.
func New(t *dllite.TBox) *Reformulator {
	r := &Reformulator{
		T:          t,
		MaxQueries: DefaultMaxQueries,
		conceptRHS: make(map[string][]dllite.Axiom),
		existsRHS:  make(map[roleKey][]dllite.Axiom),
		roleRHS:    make(map[string][]dllite.Axiom),
		memo:       make(map[string]query.UCQ),
	}
	for _, ax := range t.PositiveAxioms() {
		switch ax.Kind {
		case dllite.ConceptInclusion:
			if ax.RC.Exists {
				k := roleKey{name: ax.RC.Role.Name, inv: ax.RC.Role.Inv}
				r.existsRHS[k] = append(r.existsRHS[k], ax)
			} else {
				r.conceptRHS[ax.RC.Name] = append(r.conceptRHS[ax.RC.Name], ax)
			}
		case dllite.RoleInclusion:
			r.roleRHS[ax.RR.Name] = append(r.roleRHS[ax.RR.Name], ax)
		}
	}
	return r
}

// Reformulate computes the UCQ reformulation of q w.r.t. the TBox
// (PerfectRef). The first disjunct is always (a deduplicated copy of) q
// itself.
//
// Results are memoized per rendered query string — NOT per canonical
// key: the reformulation's variable names matter downstream (JUCQ
// fragments join on head variable names), so two isomorphic queries
// with different variable names must not share a memo entry.
func (r *Reformulator) Reformulate(q query.CQ) (query.UCQ, error) {
	key := memoKey(q)
	if u, ok := r.memoGet(key); ok {
		return u, nil
	}
	u, err := r.reformulate(q)
	if err != nil {
		return query.UCQ{}, err
	}
	r.memoPut(key, u)
	return u, nil
}

// memoKey renders head and body literally (variable names included)
// but ignores the query name, so the same fragment produced by
// different covers hits the same entry.
func memoKey(q query.CQ) string {
	var b strings.Builder
	for _, h := range q.Head {
		b.WriteString(h.String())
		b.WriteByte(',')
	}
	b.WriteString("<-")
	for _, a := range q.Atoms {
		b.WriteString(a.String())
		b.WriteByte('&')
	}
	return b.String()
}

// MustReformulate panics on error (blowup past MaxQueries).
func (r *Reformulator) MustReformulate(q query.CQ) query.UCQ {
	u, err := r.Reformulate(q)
	if err != nil {
		panic(err)
	}
	return u
}

func (r *Reformulator) reformulate(q query.CQ) (query.UCQ, error) {
	gen := query.NewFreshVarGen(q)
	start := q.DedupAtoms()
	result := []query.CQ{start}
	seen := map[string]bool{query.CanonicalKey(start): true}

	// Most generated CQs are duplicates of ones already kept, so a
	// candidate is assembled in body, keyed into key — two buffers
	// reused for the whole run — and only copied out when it is new.
	// Heads and argument lists are shared between disjuncts; nothing
	// mutates them in place.
	var body []query.Atom
	var key []byte
	add := func(name string, head []query.Term) {
		atoms := query.AppendDistinctAtoms(body[:0], body)
		key = query.AppendCanonicalKey(key[:0], query.CQ{Head: head, Atoms: atoms})
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
		result = append(result, query.CQ{Name: name, Head: head, Atoms: append([]query.Atom(nil), atoms...)})
	}

	for i := 0; i < len(result); i++ {
		if len(result) > r.MaxQueries {
			return query.UCQ{}, fmt.Errorf("reformulate %s: more than %d CQs generated", q.Name, r.MaxQueries)
		}
		cur := result[i]
		// (a) Backward application of positive inclusions to each atom.
		for ai, atom := range cur.Atoms {
			for _, repl := range r.applicableRewrites(cur, atom, gen) {
				body = append(body[:0], cur.Atoms...)
				body[ai] = repl
				add(cur.Name, cur.Head)
			}
		}
		// (b) Reduce: unify pairs of atoms. Representatives prefer head
		// variables and variables occurring at least twice in the body,
		// so that anonymous variables never capture meaningful ones.
		prefer := func(v string) bool { return cur.IsHeadVar(v) || cur.Occurrences(v) >= 2 }
		for x := 0; x < len(cur.Atoms); x++ {
			for y := x + 1; y < len(cur.Atoms); y++ {
				s := query.UnifyPrefer(cur.Atoms[x], cur.Atoms[y], prefer)
				if s == nil {
					continue
				}
				body = body[:0]
				for _, a := range cur.Atoms {
					body = append(body, a.Subst(s))
				}
				add(cur.Name, substHead(cur.Head, s))
			}
		}
	}
	return query.UCQ{Name: q.Name, Disjuncts: result}, nil
}

// substHead applies s to the head, returning head itself when s leaves
// it alone (the common case: unifiers mostly bind existentials).
func substHead(head []query.Term, s query.Substitution) []query.Term {
	for i, h := range head {
		if s.Apply(h) == h {
			continue
		}
		out := make([]query.Term, len(head))
		copy(out, head[:i])
		for j := i; j < len(head); j++ {
			out[j] = s.Apply(head[j])
		}
		return out
	}
	return head
}

// applicableRewrites returns the atoms gr(g, I) for every positive
// inclusion I applicable to atom g in query cur (Section 2.2).
func (r *Reformulator) applicableRewrites(cur query.CQ, g query.Atom, gen *query.FreshVarGen) []query.Atom {
	var out []query.Atom
	unbound := func(t query.Term) bool {
		return t.IsVar() && cur.IsUnbound(t.Name)
	}
	switch g.Arity() {
	case 1:
		x := g.Args[0]
		for _, ax := range r.conceptRHS[g.Pred] {
			out = append(out, backwardConcept(ax.LC, x, gen))
		}
	case 2:
		x1, x2 := g.Args[0], g.Args[1]
		// RHS = ∃P applies when the second argument is unbound.
		if unbound(x2) {
			for _, ax := range r.existsRHS[roleKey{name: g.Pred, inv: false}] {
				out = append(out, backwardExists(ax.LC, x1, gen))
			}
		}
		// RHS = ∃P⁻ applies when the first argument is unbound.
		if unbound(x1) {
			for _, ax := range r.existsRHS[roleKey{name: g.Pred, inv: true}] {
				out = append(out, backwardExists(ax.LC, x2, gen))
			}
		}
		// Role inclusions always apply.
		for _, ax := range r.roleRHS[g.Pred] {
			// ax: LR ⊑ RR with name(RR) = g.Pred. Align orientation:
			// if RR is direct, LR read forward replaces (x1,x2);
			// if RR is inverse, LR replaces (x2,x1).
			a, b := x1, x2
			if ax.RR.Inv {
				a, b = b, a
			}
			if ax.LR.Inv {
				out = append(out, query.RoleAtom(ax.LR.Name, b, a))
			} else {
				out = append(out, query.RoleAtom(ax.LR.Name, a, b))
			}
		}
	}
	return out
}

// backwardConcept rewrites atom A(x) using axiom LC ⊑ A.
func backwardConcept(lc dllite.Concept, x query.Term, gen *query.FreshVarGen) query.Atom {
	if !lc.Exists {
		return query.ConceptAtom(lc.Name, x)
	}
	if lc.Role.Inv {
		return query.RoleAtom(lc.Role.Name, gen.Fresh(), x) // ∃P⁻ ⊑ A: P(_, x)
	}
	return query.RoleAtom(lc.Role.Name, x, gen.Fresh()) // ∃P ⊑ A: P(x, _)
}

// backwardExists rewrites atom P(x,_) (or P(_,x)) using axiom LC ⊑ ∃P
// (resp. LC ⊑ ∃P⁻); x is the term in the projected position.
func backwardExists(lc dllite.Concept, x query.Term, gen *query.FreshVarGen) query.Atom {
	if !lc.Exists {
		return query.ConceptAtom(lc.Name, x)
	}
	if lc.Role.Inv {
		return query.RoleAtom(lc.Role.Name, gen.Fresh(), x) // ∃P1⁻ ⊑ ∃P: P1(_, x)
	}
	return query.RoleAtom(lc.Role.Name, x, gen.Fresh()) // ∃P1 ⊑ ∃P: P1(x, _)
}

// CQToUCQ is a convenience wrapper: reformulate q w.r.t. t.
func CQToUCQ(q query.CQ, t *dllite.TBox) (query.UCQ, error) {
	return New(t).Reformulate(q)
}

package query

import (
	"fmt"
	"strings"
)

// CQ is a conjunctive query q(x̄) ← a1 ∧ … ∧ an. Head terms are the
// distinguished (free) variables x̄; all other variables are existential.
// Constants may not appear in the head.
type CQ struct {
	Name  string // optional query name, used in diagnostics only
	Head  []Term
	Atoms []Atom
}

// NewCQ builds a CQ, validating that head terms are variables occurring
// in the body.
func NewCQ(name string, head []Term, atoms []Atom) (CQ, error) {
	q := CQ{Name: name, Head: head, Atoms: atoms}
	for _, h := range head {
		if h.Const {
			return CQ{}, fmt.Errorf("query %s: head term %s is a constant", name, h)
		}
		if !q.bodyHasVar(h.Name) {
			return CQ{}, fmt.Errorf("query %s: head variable %s does not occur in the body", name, h)
		}
	}
	return q, nil
}

func (q CQ) bodyHasVar(name string) bool {
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && t.Name == name {
				return true
			}
		}
	}
	return false
}

// IsHeadVar reports whether name is a head variable of q.
func (q CQ) IsHeadVar(name string) bool {
	for _, h := range q.Head {
		if h.Name == name {
			return true
		}
	}
	return false
}

// VarOccurrences counts, per variable name, the number of occurrences in
// the body of q.
func (q CQ) VarOccurrences() map[string]int {
	m := make(map[string]int)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				m[t.Name]++
			}
		}
	}
	return m
}

// IsUnbound reports whether variable name is "unbound" in the sense of
// the PerfectRef algorithm: it occurs exactly once in the body and is
// not a head variable.
func (q CQ) IsUnbound(name string) bool {
	return !q.IsHeadVar(name) && q.Occurrences(name) == 1
}

// Occurrences counts the occurrences of variable name in the body of q.
func (q CQ) Occurrences(name string) int {
	n := 0
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && t.Name == name {
				n++
			}
		}
	}
	return n
}

// Parameterize splits q into a template and its arguments: every
// distinct constant of q becomes one parameter, numbered in order of
// first occurrence (head, then body, left to right), and args[i] is
// the constant parameter i stands for. Equal constants share one
// parameter, so the template keeps exactly the equalities among q's
// constants. The DL-LiteR TBox names no individuals, so reformulating,
// covering, costing and planning the template does for every instance
// what doing it on the instance would; only evaluation reads args.
// A query without constants is its own template: q comes back as is,
// with nil args, and nothing is allocated. q must carry no parameters.
func Parameterize(q CQ) (tmpl CQ, args []string) {
	if !q.hasConst() {
		return q, nil
	}
	param := func(t Term) Term {
		if !t.Const {
			return t
		}
		for i, c := range args {
			if c == t.Name {
				return Param(i)
			}
		}
		args = append(args, t.Name)
		return Param(len(args) - 1)
	}
	tmpl = CQ{Name: q.Name, Head: make([]Term, len(q.Head)), Atoms: make([]Atom, len(q.Atoms))}
	for i, h := range q.Head {
		tmpl.Head[i] = param(h)
	}
	for i, a := range q.Atoms {
		terms := make([]Term, len(a.Args))
		for j, t := range a.Args {
			terms[j] = param(t)
		}
		tmpl.Atoms[i] = Atom{Pred: a.Pred, Args: terms}
	}
	return tmpl, args
}

// hasConst reports whether q mentions a constant, in its head or body.
func (q CQ) hasConst() bool {
	for _, h := range q.Head {
		if h.Const {
			return true
		}
	}
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.Const {
				return true
			}
		}
	}
	return false
}

// Bind returns the instance of a template: q with every parameter
// replaced by its argument (Parameterize's inverse).
func (q CQ) Bind(args []string) CQ {
	out := q.Clone()
	for i, h := range out.Head {
		out.Head[i] = h.Bind(args)
	}
	for _, a := range out.Atoms {
		for j, t := range a.Args {
			a.Args[j] = t.Bind(args)
		}
	}
	return out
}

// Clone returns a deep copy of q.
func (q CQ) Clone() CQ {
	head := make([]Term, len(q.Head))
	copy(head, q.Head)
	atoms := make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		args := make([]Term, len(a.Args))
		copy(args, a.Args)
		atoms[i] = Atom{Pred: a.Pred, Args: args}
	}
	return CQ{Name: q.Name, Head: head, Atoms: atoms}
}

// DedupAtoms removes exact duplicate atoms from the body, preserving
// order of first occurrence.
func (q CQ) DedupAtoms() CQ {
	q.Atoms = AppendDistinctAtoms(make([]Atom, 0, len(q.Atoms)), q.Atoms)
	return q
}

// AppendDistinctAtoms appends to dst the atoms not already in it, in
// order, comparing syntactically: bodies are a handful of atoms, so the
// scan beats hashing renderings. dst may be atoms[:0], which filters
// atoms in place.
func AppendDistinctAtoms(dst, atoms []Atom) []Atom {
next:
	for _, a := range atoms {
		for _, b := range dst {
			if a.Equal(b) {
				continue next
			}
		}
		dst = append(dst, a)
	}
	return dst
}

// Vars returns the distinct variable names of the body in order of first
// occurrence.
func (q CQ) Vars() []string {
	var out []string
	seen := make(map[string]bool)
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if t.IsVar() && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	return out
}

// String renders the CQ in the paper's notation, e.g.
// "q(x) ← PhDStudent(x) ∧ worksWith(y, x)".
func (q CQ) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name)
	b.WriteByte('(')
	for i, h := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(h.String())
	}
	b.WriteString(") ← ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(a.String())
	}
	return b.String()
}

// Package query implements the first-order query dialects of the paper
// (Table 4): conjunctive queries (CQ), unions of CQs (UCQ),
// semi-conjunctive queries (SCQ), unions of SCQs (USCQ), joins of UCQs
// (JUCQ) and joins of USCQs (JUSCQ), together with substitutions,
// most-general unifiers, canonical forms, homomorphism-based containment
// and UCQ minimization.
//
// Queries are built from unary atoms A(t) (concepts) and binary atoms
// R(t,t') (roles) over variables and constants; this matches the
// DL-LiteR setting of the paper but the package itself is independent of
// any ontology language.
package query

import (
	"strconv"
	"strings"
)

// Term is a variable or a constant appearing in an atom argument.
// The zero value is an (invalid) variable with an empty name.
//
// A parameter (Param, set only with Const) is a constant whose value a
// run binds: the placeholder Parameterize puts where a query had a
// constant. Every pass that reads Const treats it as a constant; it
// never equals a constant a query carries, whose Param is unset, and
// its Name, ?i for parameter i, is no identifier the parser accepts,
// so no variable is named like it either.
type Term struct {
	Name  string
	Const bool
	Param bool
}

// Var returns a variable term with the given name.
func Var(name string) Term { return Term{Name: name} }

// Cst returns a constant term with the given value.
func Cst(value string) Term { return Term{Name: value, Const: true} }

// Param returns parameter i: the constant a run binds to args[i].
func Param(i int) Term { return Term{Name: "?" + strconv.Itoa(i), Const: true, Param: true} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return !t.Const }

// ParamIndex returns the index of a parameter, or -1 for any other
// term.
func (t Term) ParamIndex() int {
	if !t.Param {
		return -1
	}
	i, _ := strconv.Atoi(t.Name[1:])
	return i
}

// Bind resolves a parameter to its argument, the constant args[i]; a
// parameter without one, and every other term, comes back unchanged.
func (t Term) Bind(args []string) Term {
	if i := t.ParamIndex(); i >= 0 && i < len(args) {
		return Cst(args[i])
	}
	return t
}

// String renders the term; constants are quoted to disambiguate, and
// parameters read ?i.
func (t Term) String() string {
	switch {
	case t.Param:
		return t.Name
	case t.Const:
		return "'" + t.Name + "'"
	}
	return t.Name
}

// appendConstKey renders a constant or a parameter for the keys that
// identify queries: a constant quoted with every quote inside doubled,
// a parameter as ?i outside any quotes. No constant renders like a
// parameter, nor like a run of other terms.
func appendConstKey(b []byte, t Term) []byte {
	if t.Param {
		return append(b, t.Name...)
	}
	b = append(b, '\'')
	for i := 0; i < len(t.Name); i++ {
		if t.Name[i] == '\'' {
			b = append(b, '\'')
		}
		b = append(b, t.Name[i])
	}
	return append(b, '\'')
}

// Substitution maps variable names to terms. Applying a substitution
// leaves constants and unmapped variables untouched.
type Substitution map[string]Term

// Apply resolves t through the substitution, following chains of
// variable-to-variable bindings (the maps produced by Unify are not
// necessarily idempotent).
func (s Substitution) Apply(t Term) Term {
	for !t.Const {
		u, ok := s[t.Name]
		if !ok || u == t {
			return t
		}
		t = u
	}
	return t
}

// Bind records that variable v resolves to term t.
func (s Substitution) Bind(v string, t Term) { s[v] = t }

// Clone returns an independent copy of the substitution.
func (s Substitution) Clone() Substitution {
	c := make(Substitution, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

func (s Substitution) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for k, v := range s {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(k)
		b.WriteString("→")
		b.WriteString(v.String())
	}
	b.WriteByte('}')
	return b.String()
}

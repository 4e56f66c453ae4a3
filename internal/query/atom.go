package query

import "strings"

// Atom is a relational atom: a unary concept atom A(t) or a binary role
// atom R(t,t'). Higher arities are not used in the DL-LiteR setting but
// nothing below depends on arity ≤ 2 except where documented.
type Atom struct {
	Pred string
	Args []Term
}

// ConceptAtom builds the unary atom pred(t).
func ConceptAtom(pred string, t Term) Atom { return Atom{Pred: pred, Args: []Term{t}} }

// RoleAtom builds the binary atom pred(s, o).
func RoleAtom(pred string, s, o Term) Atom { return Atom{Pred: pred, Args: []Term{s, o}} }

// Arity returns the number of arguments of the atom.
func (a Atom) Arity() int { return len(a.Args) }

// Subst returns the atom with the substitution applied to its
// arguments. An atom the substitution leaves alone is returned as is,
// sharing its argument list (argument lists are never mutated in place).
func (a Atom) Subst(s Substitution) Atom {
	for i, t := range a.Args {
		if s.Apply(t) == t {
			continue
		}
		args := make([]Term, len(a.Args))
		copy(args, a.Args[:i])
		for j := i; j < len(a.Args); j++ {
			args[j] = s.Apply(a.Args[j])
		}
		return Atom{Pred: a.Pred, Args: args}
	}
	return a
}

// Equal reports syntactic equality of two atoms.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// SharesVar reports whether a and b have at least one variable in common.
func (a Atom) SharesVar(b Atom) bool {
	for _, t := range a.Args {
		if t.Const {
			continue
		}
		for _, u := range b.Args {
			if u.IsVar() && u.Name == t.Name {
				return true
			}
		}
	}
	return false
}

func (a Atom) String() string {
	var b strings.Builder
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte(')')
	return b.String()
}

// UnifyPrefer computes a most general unifier of atoms a and b, or nil
// if they do not unify. When two variables are unified and one of them
// is "preferred" (e.g. a head variable of the enclosing query), the
// preferred one is kept as the representative. This mirrors footnote 3
// of the paper: unifying supervisedBy(x,y) and supervisedBy(z,y) with
// head variable x must keep x.
func UnifyPrefer(a, b Atom, preferred func(string) bool) Substitution {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return nil
	}
	s := make(Substitution)
	for i := range a.Args {
		x := s.Apply(a.Args[i])
		y := s.Apply(b.Args[i])
		switch {
		case x == y:
		case x.IsVar() && y.IsVar():
			if preferred(y.Name) && !preferred(x.Name) {
				s.Bind(x.Name, y)
			} else {
				s.Bind(y.Name, x)
			}
		case x.IsVar():
			s.Bind(x.Name, y)
		case y.IsVar():
			s.Bind(y.Name, x)
		default:
			return nil
		}
	}
	return s
}

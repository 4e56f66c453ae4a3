package plan

// Extraction of a plan tree back into the dialect query it lowers from:
// the inverse of the From* lowerings. No production code needs it —
// every consumer reads the tree itself — but it is the oracle of the
// round-trip tests and of FuzzRewriteValidate: lowering then extracting
// is the identity, and Rewrite preserves the extracted query.

import (
	"fmt"

	"repro/internal/query"
)

// Kind identifies which dialect a plan tree extracts back into.
type Kind int

// The extractable dialects.
const (
	KindUCQ Kind = iota
	KindUSCQ
	KindJUCQ
	KindJUSCQ
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindUCQ:
		return "ucq"
	case KindUSCQ:
		return "uscq"
	case KindJUCQ:
		return "jucq"
	case KindJUSCQ:
		return "juscq"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Lowered is a plan tree extracted back into dialect form. Exactly the
// field selected by Kind is meaningful.
type Lowered struct {
	Kind  Kind
	UCQ   query.UCQ
	USCQ  query.USCQ
	JUCQ  query.JUCQ
	JUSCQ query.JUSCQ
}

// Extract recovers the dialect query from a plan tree produced by the
// From* lowerings (or any tree of the same shape). Bodies reassemble
// in Pos order, so Extract(FromX(q)) returns q unchanged. Malformed
// trees return an error rather than panicking.
func Extract(n *Node) (Lowered, error) {
	if n == nil {
		return Lowered{}, fmt.Errorf("plan: nil node")
	}
	if n.Op != OpDistinct || len(n.Inputs) != 1 {
		return Lowered{}, fmt.Errorf("plan: root must be distinct over one input, got %s/%d", n.Op, len(n.Inputs))
	}
	switch child := n.Inputs[0]; child.Op {
	case OpUnion:
		return extractUnion(n.Name, child)
	case OpProject:
		if isCoverShape(child) {
			return extractCover(child)
		}
		// Distinct directly over an arm projection: the collapsed
		// single-arm-union shape the Rewrite pass produces.
		return extractSingleArm(n.Name, child)
	default:
		return Lowered{}, fmt.Errorf("plan: distinct input must be union or project, got %s", child.Op)
	}
}

// extractSingleArm turns Distinct(Project(body)) into the
// one-disjunct UCQ or USCQ it stands for.
func extractSingleArm(name string, arm *Node) (Lowered, error) {
	if arm.Factorized {
		s, err := extractSCQ(arm)
		if err != nil {
			return Lowered{}, err
		}
		return Lowered{Kind: KindUSCQ, USCQ: query.USCQ{Name: name, Disjuncts: []query.SCQ{s}}}, nil
	}
	cq, err := extractCQ(arm)
	if err != nil {
		return Lowered{}, err
	}
	return Lowered{Kind: KindUCQ, UCQ: query.UCQ{Name: name, Disjuncts: []query.CQ{cq}}}, nil
}

// extractUnion turns Distinct(Union(arms)) into a UCQ or USCQ.
func extractUnion(name string, u *Node) (Lowered, error) {
	arms := u.Inputs
	factorized := false
	for _, arm := range arms {
		if arm.Op != OpProject {
			return Lowered{}, fmt.Errorf("plan: union arm must be a projection, got %s", arm.Op)
		}
		if arm.Factorized {
			factorized = true
		}
	}
	if factorized {
		out := query.USCQ{Name: name}
		for _, arm := range arms {
			s, err := extractSCQ(arm)
			if err != nil {
				return Lowered{}, err
			}
			out.Disjuncts = append(out.Disjuncts, s)
		}
		return Lowered{Kind: KindUSCQ, USCQ: out}, nil
	}
	out := query.UCQ{Name: name}
	for _, arm := range arms {
		cq, err := extractCQ(arm)
		if err != nil {
			return Lowered{}, err
		}
		out.Disjuncts = append(out.Disjuncts, cq)
	}
	return Lowered{Kind: KindUCQ, UCQ: out}, nil
}

// extractCover turns Distinct(Project(Join(frag...))) into a JUCQ or
// JUSCQ. Mixed fragment dialects promote to JUSCQ, plain CQ disjuncts
// becoming all-singleton-block SCQs (semantically identical).
func extractCover(p *Node) (Lowered, error) {
	if len(p.Inputs) != 1 || p.Inputs[0].Op != OpJoin {
		return Lowered{}, fmt.Errorf("plan: cover projection must wrap a join")
	}
	join := p.Inputs[0]
	if len(join.Inputs) == 0 {
		return Lowered{}, fmt.Errorf("plan: cover join has no fragments")
	}
	subs := make([]Lowered, len(join.Inputs))
	anySCQ := false
	for i, frag := range join.Inputs {
		lo, err := Extract(unwrapExchange(frag))
		if err != nil {
			return Lowered{}, fmt.Errorf("plan: fragment %d: %w", i, err)
		}
		if lo.Kind != KindUCQ && lo.Kind != KindUSCQ {
			return Lowered{}, fmt.Errorf("plan: fragment %d extracts to %s, want ucq or uscq", i, lo.Kind)
		}
		if lo.Kind == KindUSCQ {
			anySCQ = true
		}
		subs[i] = lo
	}
	if anySCQ {
		out := query.JUSCQ{Name: p.Name, Head: p.Head}
		for _, lo := range subs {
			if lo.Kind == KindUSCQ {
				out.Subs = append(out.Subs, lo.USCQ)
				continue
			}
			out.Subs = append(out.Subs, ucqToUSCQ(lo.UCQ))
		}
		return Lowered{Kind: KindJUSCQ, JUSCQ: out}, nil
	}
	out := query.JUCQ{Name: p.Name, Head: p.Head}
	for _, lo := range subs {
		out.Subs = append(out.Subs, lo.UCQ)
	}
	return Lowered{Kind: KindJUCQ, JUCQ: out}, nil
}

// ucqToUSCQ converts each disjunct to the SCQ with one singleton block
// per atom — the same query, in factorized clothing.
func ucqToUSCQ(u query.UCQ) query.USCQ {
	out := query.USCQ{Name: u.Name}
	for _, d := range u.Disjuncts {
		s := query.SCQ{Name: d.Name, Head: d.Head}
		for _, a := range d.Atoms {
			s.Blocks = append(s.Blocks, []query.Atom{a})
		}
		out.Disjuncts = append(out.Disjuncts, s)
	}
	return out
}

// extractCQ reassembles the CQ of a non-factorized arm projection.
func extractCQ(arm *Node) (query.CQ, error) {
	if len(arm.Inputs) != 1 {
		return query.CQ{}, fmt.Errorf("plan: arm projection must have one input")
	}
	q := query.CQ{Name: arm.Name, Head: arm.Head}
	for _, acc := range accessLeaves(arm.Inputs[0]) {
		if len(acc.Atoms) != 1 {
			return query.CQ{}, fmt.Errorf("plan: non-factorized arm has a %d-atom access block", len(acc.Atoms))
		}
		q.Atoms = append(q.Atoms, acc.Atoms[0])
	}
	if len(q.Atoms) == 0 {
		return query.CQ{}, fmt.Errorf("plan: arm has no accesses")
	}
	return q, nil
}

// extractSCQ reassembles the SCQ of a factorized arm projection.
func extractSCQ(arm *Node) (query.SCQ, error) {
	if len(arm.Inputs) != 1 {
		return query.SCQ{}, fmt.Errorf("plan: arm projection must have one input")
	}
	s := query.SCQ{Name: arm.Name, Head: arm.Head}
	for _, acc := range accessLeaves(arm.Inputs[0]) {
		if len(acc.Atoms) == 0 {
			return query.SCQ{}, fmt.Errorf("plan: empty access block")
		}
		s.Blocks = append(s.Blocks, acc.Atoms)
	}
	if len(s.Blocks) == 0 {
		return query.SCQ{}, fmt.Errorf("plan: arm has no accesses")
	}
	return s, nil
}

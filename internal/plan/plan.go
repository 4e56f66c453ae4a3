// Package plan is the backend-neutral logical-plan IR: the single
// representation every strategy lowers its chosen reformulation into
// before any backend sees it. The classic logical/physical split —
// reformulation/cover/search produce a Node tree (Access, Join,
// SemiJoin, Union, Distinct, Project), and a Backend turns the tree
// into something executable (the native streaming-operator engine, or
// the SQL text shipped to an RDBMS). Cost estimators score the same
// tree, so GDL/RDBMS and GDL/ext differ only in which Estimator walks
// identical plans, and EXPLAIN derives from the tree plus per-operator
// counters.
//
// The IR is deliberately small: exactly what is needed to express the
// paper's dialects (CQ, UCQ, SCQ, USCQ and the JUCQ/JUSCQ cover
// shapes). Nodes are immutable after construction — lowered trees are
// cached and shared across concurrent executions.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/query"
)

// Op enumerates the logical operators.
type Op int

// The logical operators of the IR.
const (
	// OpAccess reads one relation: a concept or role atom. Atoms with
	// more than one entry is a factorized SCQ block (the union of the
	// alternatives' matches, per input row).
	OpAccess Op = iota
	// OpJoin is the natural join of its inputs on shared variables.
	OpJoin
	// OpSemiJoin filters its first input by the remaining inputs (the
	// paper's semijoin reducers f‖g): existential atoms that only
	// restrict the core, never extend the output.
	OpSemiJoin
	// OpUnion concatenates its inputs (UCQ / USCQ disjuncts).
	OpUnion
	// OpDistinct removes duplicate rows.
	OpDistinct
	// OpProject maps a body onto a query head.
	OpProject
	// OpExchange hash-repartitions its single input's rows on Key so
	// the operator above runs partition-local in a sharded execution
	// (the shuffle of classic distributed query processing). On a
	// single-node backend it is the identity — rows pass through
	// unchanged — so Extract sees straight through it.
	OpExchange
)

// String names the operator.
func (o Op) String() string {
	switch o {
	case OpAccess:
		return "access"
	case OpJoin:
		return "join"
	case OpSemiJoin:
		return "semijoin"
	case OpUnion:
		return "union"
	case OpDistinct:
		return "distinct"
	case OpProject:
		return "project"
	case OpExchange:
		return "exchange"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Node is one logical operator. A Node tree is immutable once built;
// backends compile it into fresh physical state per execution.
type Node struct {
	Op Op

	// Atoms is the accessed relation(s) (OpAccess only). More than one
	// atom means a factorized SCQ block: the alternatives' matches are
	// unioned per input row.
	Atoms []query.Atom
	// Pos is the atom (or SCQ block) index in the originating query
	// body (OpAccess only); extraction reassembles bodies in Pos order
	// so lowering then extracting is the identity on the query.
	Pos int

	// Head is the projected query head (OpProject only).
	Head []query.Term
	// Factorized marks a projection over a factorized SCQ body
	// (OpProject only): its Access inputs are blocks, not single
	// atoms, and backends must keep the factorized evaluation.
	Factorized bool

	// Name carries the originating query's name (diagnostics).
	Name string

	// Key is the repartition variable (OpExchange only): rows route to
	// the shard owning ShardOf(row[Key]).
	Key string

	Inputs []*Node
}

// FromCQ lowers one conjunctive query: project over the join of its
// atom accesses, with purely-restricting atoms split into a semijoin
// reducer (the paper's f‖g decoration on safe covers).
func FromCQ(q query.CQ) *Node {
	core, reducers := splitReducers(q)
	// One backing array for the disjunct's access leaves, each viewing
	// its atom in the query's own body (neither is ever written to).
	accs := make([]Node, len(q.Atoms))
	for i := range q.Atoms {
		accs[i] = Node{Op: OpAccess, Atoms: q.Atoms[i : i+1 : i+1], Pos: i}
	}
	var body *Node
	if len(core) == 1 {
		body = &accs[core[0]]
	} else {
		in := make([]*Node, len(core))
		for i, p := range core {
			in[i] = &accs[p]
		}
		body = &Node{Op: OpJoin, Inputs: in}
	}
	if len(reducers) > 0 {
		in := make([]*Node, 0, 1+len(reducers))
		in = append(in, body)
		for _, p := range reducers {
			in = append(in, &accs[p])
		}
		body = &Node{Op: OpSemiJoin, Inputs: in}
	}
	return &Node{Op: OpProject, Head: q.Head, Name: q.Name, Inputs: []*Node{body}}
}

// splitReducers partitions the atom indexes of q into the join core
// and the semijoin reducers. An atom may reduce (rather than join)
// when it has the paper's g-shape: at least one private existential
// variable (occurring nowhere else in the body nor in the head), every
// other variable bound by the remaining core, and a shared variable
// keeping it connected. Such an atom only restricts core rows — it can
// never extend the output. The classification is presentation-only —
// extraction merges reducers back in Pos order — but it is what lets
// EXPLAIN show the f‖g shape of safe covers.
//
// Atoms are tried last to first, each against the core as it stands.
// One pass counts every variable's occurrences in the body; the count
// still inside the core is kept up to date as atoms leave it, so "bound
// by the rest of the core" is a comparison of two counters.
func splitReducers(q query.CQ) (core, reducers []int) {
	var (
		varsBuf   [16]query.BodyVar
		inCoreBuf [16]int
		refsBuf   [32]int
		startsBuf [17]int
		outBuf    [16]bool
	)
	n := len(q.Atoms)
	vars, refs, starts := q.IndexBody(varsBuf[:0], refsBuf[:0], startsBuf[:0])
	// inCore[k]: occurrences of variable k in atoms still in the core.
	inCore := inCoreBuf[:0]
	for _, v := range vars {
		inCore = append(inCore, v.Occ)
	}

	out := append(outBuf[:0], make([]bool, n)...) // out[i]: atom i left the core
	coreLeft := n
	for i := n - 1; i >= 0 && coreLeft > 1; i-- {
		mine := refs[starts[i]:starts[i+1]]
		shares, private, reducible := false, false, true
		for _, k := range mine {
			if k < 0 {
				continue
			}
			here := 0
			for _, k2 := range mine {
				if k2 == k {
					here++
				}
			}
			if inCore[k] > here {
				shares = true
				continue
			}
			// A variable not bound by the rest of the core must be
			// private to this atom and invisible in the head.
			if vars[k].Head >= 0 || vars[k].Occ > here {
				reducible = false
				break
			}
			private = true
		}
		if shares && private && reducible {
			out[i] = true
			coreLeft--
			for _, k := range mine {
				if k >= 0 {
					inCore[k]--
				}
			}
		}
	}
	core = make([]int, 0, coreLeft)
	if coreLeft < n {
		reducers = make([]int, 0, n-coreLeft)
	}
	for i := 0; i < n; i++ {
		if out[i] {
			reducers = append(reducers, i)
		} else {
			core = append(core, i)
		}
	}
	return core, reducers
}

// FromUCQ lowers a union of conjunctive queries: distinct over the
// union of the per-disjunct trees.
func FromUCQ(u query.UCQ) *Node {
	arms := make([]*Node, len(u.Disjuncts))
	for i, d := range u.Disjuncts {
		arms[i] = FromCQ(d)
	}
	return &Node{Op: OpDistinct, Name: u.Name, Inputs: []*Node{
		{Op: OpUnion, Name: u.Name, Inputs: arms},
	}}
}

// FromSCQ lowers a semi-conjunctive query: project over the join of
// its block accesses (each Access holds one block's alternatives).
func FromSCQ(s query.SCQ) *Node {
	var body *Node
	if len(s.Blocks) == 1 {
		body = &Node{Op: OpAccess, Atoms: s.Blocks[0], Pos: 0}
	} else {
		in := make([]*Node, len(s.Blocks))
		for i, b := range s.Blocks {
			in[i] = &Node{Op: OpAccess, Atoms: b, Pos: i}
		}
		body = &Node{Op: OpJoin, Inputs: in}
	}
	return &Node{Op: OpProject, Head: s.Head, Name: s.Name, Factorized: true, Inputs: []*Node{body}}
}

// FromUSCQ lowers a union of semi-conjunctive queries.
func FromUSCQ(u query.USCQ) *Node {
	arms := make([]*Node, len(u.Disjuncts))
	for i, s := range u.Disjuncts {
		arms[i] = FromSCQ(s)
	}
	return &Node{Op: OpDistinct, Name: u.Name, Inputs: []*Node{
		{Op: OpUnion, Name: u.Name, Inputs: arms},
	}}
}

// FromJUCQ lowers a cover reformulation: the cover shape (see Cover)
// over the fragment UCQ trees.
func FromJUCQ(j query.JUCQ) *Node {
	frags := make([]*Node, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = FromUCQ(sub)
	}
	return Cover(j.Name, j.Head, frags)
}

// FromJUSCQ is the factorized analogue of FromJUCQ.
func FromJUSCQ(j query.JUSCQ) *Node {
	frags := make([]*Node, len(j.Subs))
	for i, sub := range j.Subs {
		frags[i] = FromUSCQ(sub)
	}
	return Cover(j.Name, j.Head, frags)
}

// Cover assembles the cover shape over already-lowered fragment
// subtrees: distinct over the projection onto head of the natural join
// of the fragments. A single fragment is its own plan — there is
// nothing to join, and backends evaluate the union directly (no
// materialization step), exactly what executes. The fragments are
// referenced, not copied: the cover search builds every candidate
// cover's tree over one shared set of fragment subtrees.
func Cover(name string, head []query.Term, frags []*Node) *Node {
	if len(frags) == 1 {
		return frags[0]
	}
	return &Node{Op: OpDistinct, Name: name, Inputs: []*Node{
		{Op: OpProject, Head: head, Name: name, Inputs: []*Node{
			{Op: OpJoin, Inputs: frags},
		}},
	}}
}

// CoverFragments takes a cover-shaped tree apart: it returns the
// Distinct-rooted fragment subtrees under Distinct(Project(Join(...))),
// with any Exchange wrapper stepped over, or nil when n has any other
// shape (a plain UCQ/USCQ tree, in particular, is not a cover).
func CoverFragments(n *Node) []*Node {
	if n == nil || n.Op != OpDistinct || len(n.Inputs) != 1 ||
		n.Inputs[0].Op != OpProject || !isCoverShape(n.Inputs[0]) {
		return nil
	}
	frags := n.Inputs[0].Inputs[0].Inputs
	for _, in := range frags {
		if in.Op == OpExchange {
			out := make([]*Node, len(frags))
			for i, in := range frags {
				out[i] = unwrapExchange(in)
			}
			return out
		}
	}
	return frags
}

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

// Lowered is a plan tree extracted back into dialect form — the shape
// backends plan and execute. Exactly the field selected by Kind is
// meaningful.
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
// trees return an error rather than panicking — backends surface it
// from Compile.
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

// isCoverShape distinguishes a cover projection (wrapping the join of
// fragment subtrees, each a Distinct root, possibly behind an Exchange)
// from a plain arm projection whose union was collapsed away — the only
// two Projects a Distinct root can wrap.
func isCoverShape(p *Node) bool {
	if len(p.Inputs) != 1 || p.Inputs[0].Op != OpJoin {
		return false
	}
	join := p.Inputs[0]
	if len(join.Inputs) == 0 {
		return false
	}
	for _, in := range join.Inputs {
		if unwrapExchange(in).Op != OpDistinct {
			return false
		}
	}
	return true
}

// unwrapExchange steps over an OpExchange wrapper: for extraction and
// cover-shape checks an exchange is the identity on its input.
func unwrapExchange(n *Node) *Node {
	if n != nil && n.Op == OpExchange && len(n.Inputs) == 1 {
		return n.Inputs[0]
	}
	return n
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

// AccessLeaves collects the OpAccess descendants of n, sorted by Pos.
func AccessLeaves(n *Node) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Op == OpAccess {
			out = append(out, m)
			return
		}
		for _, in := range m.Inputs {
			walk(in)
		}
	}
	walk(n)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Pos < out[b].Pos })
	return out
}

// extractCQ reassembles the CQ of a non-factorized arm projection.
func extractCQ(arm *Node) (query.CQ, error) {
	if len(arm.Inputs) != 1 {
		return query.CQ{}, fmt.Errorf("plan: arm projection must have one input")
	}
	q := query.CQ{Name: arm.Name, Head: arm.Head}
	for _, acc := range AccessLeaves(arm.Inputs[0]) {
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
	for _, acc := range AccessLeaves(arm.Inputs[0]) {
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

// String renders the tree compactly (single line, diagnostics).
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b)
	return b.String()
}

func (n *Node) render(b *strings.Builder) {
	b.WriteString(n.Op.String())
	if d := n.Detail(); d != "" {
		b.WriteString("[" + d + "]")
	}
	if len(n.Inputs) > 0 {
		b.WriteByte('(')
		for i, in := range n.Inputs {
			if i > 0 {
				b.WriteString(", ")
			}
			in.render(b)
		}
		b.WriteByte(')')
	}
}

// Detail is the operator-specific annotation shown in String and
// EXPLAIN output.
func (n *Node) Detail() string {
	switch n.Op {
	case OpAccess:
		parts := make([]string, len(n.Atoms))
		for i, a := range n.Atoms {
			parts[i] = a.String()
		}
		return strings.Join(parts, " ∨ ")
	case OpProject:
		parts := make([]string, len(n.Head))
		for i, h := range n.Head {
			parts[i] = h.String()
		}
		d := "(" + strings.Join(parts, ", ") + ")"
		if n.Name != "" {
			d = n.Name + d
		}
		return d
	case OpUnion:
		return fmt.Sprintf("%d arms", len(n.Inputs))
	case OpSemiJoin:
		return fmt.Sprintf("%d reducers", len(n.Inputs)-1)
	case OpExchange:
		return "on " + n.Key
	}
	return ""
}

// Package plan is the backend-neutral logical-plan IR: the single
// representation every strategy lowers its chosen reformulation into
// before any backend sees it. The classic logical/physical split —
// reformulation/cover/search produce a Node tree (Access, Join,
// SemiJoin, Union, Distinct, Project), and a Backend turns the tree
// into something executable (the native streaming-operator engine, or
// the SQL text shipped to an RDBMS). Cost estimators score the same
// tree, so GDL/RDBMS and GDL/ext differ only in which profile the one
// estimator reads over identical plans, and EXPLAIN derives from the
// tree plus per-operator counters.
//
// The IR is deliberately small: exactly what is needed to express the
// paper's dialects (CQ, UCQ, SCQ, USCQ and the JUCQ/JUSCQ cover
// shapes). Nodes are immutable after construction — lowered trees are
// cached and shared across concurrent executions.
package plan

import (
	"cmp"
	"fmt"
	"slices"
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
	// restrict the core, never extend the output. The native engine
	// runs a reducer role atom whose shared side is bound as an
	// existence probe; an existential branch of several atoms stays in
	// the core and is joined.
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
	// unchanged — so CoverFragments sees straight through it.
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
	// body (OpAccess only); consumers read an arm's body in Pos order
	// (ArmLeaves), so the semijoin split never reorders it.
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
// never extend the output. Consumers read reducers back in Pos order
// (ArmLeaves), and the classification is what lets EXPLAIN show the
// f‖g shape of safe covers. What runs is decided per plan step: the
// native engine checks a reducer role atom whose shared side is bound
// for a match instead of enumerating its matches (an existence probe,
// engine/compile.go). An existential branch of several atoms (s in
// advisedBy(s, x), enrolledIn(s, p)) is no reducer here: it stays in
// the core and is joined, up to its last atom.
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

// isCoverShape distinguishes a cover projection (wrapping the join of
// fragment subtrees, each a Distinct root, possibly behind an Exchange)
// from a plain arm projection whose union was collapsed away — the only
// two Projects a Distinct root can wrap.
func isCoverShape(p *Node) bool {
	return len(p.Inputs) == 1 && p.Inputs[0].Op == OpJoin &&
		len(p.Inputs[0].Inputs) > 0 && isCoverJoin(p.Inputs[0])
}

// unwrapExchange steps over an OpExchange wrapper: for cover-shape
// checks an exchange is the identity on its input.
func unwrapExchange(n *Node) *Node {
	if n != nil && n.Op == OpExchange && len(n.Inputs) == 1 {
		return n.Inputs[0]
	}
	return n
}

// Arms takes a fragment apart: the arm projections of Distinct(Union(
// arms)), or the one arm of Distinct(Project(body)) where Rewrite
// collapsed a single-arm union. Every arm is a Project over one body,
// whose access leaves (ArmLeaves) are the arm's atoms, or its SCQ
// blocks when Factorized. Any other shape — a cover among them — is an
// error. This is the one place the fragment shape is decided for every
// consumer: the native compiler, the ε model, the SQL renderer and the
// shard alignment.
func Arms(frag *Node) ([]*Node, error) {
	if frag == nil || frag.Op != OpDistinct || len(frag.Inputs) != 1 {
		return nil, fmt.Errorf("plan: fragment must be distinct over one input")
	}
	arms := frag.Inputs
	switch in := frag.Inputs[0]; {
	case in.Op == OpUnion:
		arms = in.Inputs
	case in.Op != OpProject:
		return nil, fmt.Errorf("plan: distinct input must be union or project, got %s", in.Op)
	case isCoverShape(in):
		return nil, fmt.Errorf("plan: fragment is a cover, want a union of arms")
	}
	for _, arm := range arms {
		if arm.Op != OpProject || len(arm.Inputs) != 1 {
			return nil, fmt.Errorf("plan: union arm must be a projection over one input, got %s", arm.Op)
		}
	}
	return arms, nil
}

// ArmLeaves returns the access leaves of one of Arms' projections in
// Pos order — the arm's body as written: one atom per leaf, or one SCQ
// block per leaf when the arm is Factorized.
func ArmLeaves(arm *Node) ([]*Node, error) {
	leaves := accessLeaves(arm.Inputs[0])
	if len(leaves) == 0 {
		return nil, fmt.Errorf("plan: arm has no accesses")
	}
	for _, acc := range leaves {
		switch {
		case len(acc.Atoms) == 0:
			return nil, fmt.Errorf("plan: empty access block")
		case !arm.Factorized && len(acc.Atoms) != 1:
			return nil, fmt.Errorf("plan: non-factorized arm has a %d-atom access block", len(acc.Atoms))
		}
	}
	return leaves, nil
}

// accessLeaves collects the OpAccess descendants of n, sorted by Pos,
// into one allocation sized by the node count.
func accessLeaves(n *Node) []*Node {
	out := appendAccess(make([]*Node, 0, NodeCount(n)), n)
	slices.SortStableFunc(out, func(a, b *Node) int { return cmp.Compare(a.Pos, b.Pos) })
	return out
}

func appendAccess(out []*Node, n *Node) []*Node {
	if n.Op == OpAccess {
		return append(out, n)
	}
	for _, in := range n.Inputs {
		out = appendAccess(out, in)
	}
	return out
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
// EXPLAIN output. Parameters read ?i (DetailArgs binds them).
func (n *Node) Detail() string { return n.DetailArgs(nil) }

// DetailArgs is Detail with every parameter bound to its argument in
// args: the annotation of the instance a run with args executes.
func (n *Node) DetailArgs(args []string) string {
	switch n.Op {
	case OpAccess:
		var b strings.Builder
		for i, a := range n.Atoms {
			if i > 0 {
				b.WriteString(" ∨ ")
			}
			b.WriteString(a.Pred)
			b.WriteByte('(')
			writeTerms(&b, a.Args, args)
			b.WriteByte(')')
		}
		return b.String()
	case OpProject:
		var b strings.Builder
		b.WriteString(n.Name)
		b.WriteByte('(')
		writeTerms(&b, n.Head, args)
		b.WriteByte(')')
		return b.String()
	case OpUnion:
		return fmt.Sprintf("%d arms", len(n.Inputs))
	case OpSemiJoin:
		return fmt.Sprintf("%d reducers", len(n.Inputs)-1)
	case OpExchange:
		return "on " + n.Key
	}
	return ""
}

// writeTerms writes terms comma-separated as Term.String renders
// them, each bound through args.
func writeTerms(b *strings.Builder, terms []query.Term, args []string) {
	for i, t := range terms {
		if i > 0 {
			b.WriteString(", ")
		}
		if t = t.Bind(args); t.Const && !t.Param {
			b.WriteByte('\'')
			b.WriteString(t.Name)
			b.WriteByte('\'')
		} else {
			b.WriteString(t.Name)
		}
	}
}

// mentionsParam reports whether n's own annotation shows a parameter.
func mentionsParam(n *Node) bool {
	for _, a := range n.Atoms {
		for _, t := range a.Args {
			if t.Param {
				return true
			}
		}
	}
	for _, t := range n.Head {
		if t.Param {
			return true
		}
	}
	return false
}

// NumParams returns how many arguments a run of n needs: one more than
// the highest parameter index the tree mentions, zero when it mentions
// none (query.Parameterize numbers parameters densely).
func NumParams(n *Node) int {
	max := -1
	for _, a := range n.Atoms {
		for _, t := range a.Args {
			if i := t.ParamIndex(); i > max {
				max = i
			}
		}
	}
	for _, t := range n.Head {
		if i := t.ParamIndex(); i > max {
			max = i
		}
	}
	for _, in := range n.Inputs {
		if k := NumParams(in) - 1; k > max {
			max = k
		}
	}
	return max + 1
}

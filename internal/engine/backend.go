package engine

// The native implementation of plan.Backend: logical plans extract
// back into the dialect the planner understands (UCQ/USCQ or the
// JUCQ/JUSCQ cover shapes), are costed by the profile's explain-style
// estimation, and execute through the streaming operator pipeline.
// Because operator trees are single-use, Compile freezes only the
// immutable plans; each Run builds a fresh tree, drains it, and walks
// it alongside the IR to report actual per-operator row counters in
// the EXPLAIN annotation.

import (
	"math"

	"repro/internal/plan"
	"repro/internal/query"
)

// Backend runs logical plans on the in-process streaming engine.
type Backend struct {
	DB      *DB
	Profile *Profile
}

// NewBackend wires the native backend over a database and profile.
func NewBackend(db *DB, prof *Profile) *Backend { return &Backend{DB: db, Profile: prof} }

// Name identifies the backend in cache keys and EXPLAIN output.
func (b *Backend) Name() string { return "native" }

// Compiled is a lowered logical plan: exactly one of the plan groups
// is set, mirroring the dialect the tree extracted into. It implements
// plan.Executable; composing backends (internal/shard) reach the
// per-run operator tree through Tree instead of the opaque Run.
type Compiled struct {
	b    *Backend
	node *plan.Node
	kind plan.Kind
	est  plan.Estimate

	ucq   *UCQPlan
	uscq  *USCQPlan
	jucq  *JUCQPlan
	juscq *JUSCQPlan
}

// lower validates the tree, extracts it, and plans it under the
// profile. Validation runs here — not only in core — so plans handed
// to the backend directly are checked too; Estimate maps the error to
// a +Inf cost.
func (b *Backend) lower(n *plan.Node) (*Compiled, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	lo, err := plan.Extract(n)
	if err != nil {
		return nil, err
	}
	c := &Compiled{b: b, node: n, kind: lo.Kind}
	switch lo.Kind {
	case plan.KindUCQ:
		p := PlanUCQ(lo.UCQ, b.DB, b.Profile)
		c.ucq = &p
		c.est = plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	case plan.KindUSCQ:
		p := PlanUSCQ(lo.USCQ, b.DB, b.Profile)
		c.uscq = &p
		c.est = plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	case plan.KindJUCQ:
		p := PlanJUCQ(lo.JUCQ, b.DB, b.Profile)
		c.jucq = &p
		c.est = plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	default:
		p := PlanJUSCQ(lo.JUSCQ, b.DB, b.Profile)
		c.juscq = &p
		c.est = plan.Estimate{Cost: p.EstCost, Card: p.EstCard}
	}
	return c, nil
}

// Compile lowers the plan into a reusable executable.
func (b *Backend) Compile(n *plan.Node) (plan.Executable, error) { return b.lower(n) }

// CompilePlan is the per-shard compile hook: it lowers the plan like
// Compile but returns the concrete *Compiled, whose Tree method hands
// composing backends a fresh operator pipeline per run.
func (b *Backend) CompilePlan(n *plan.Node) (*Compiled, error) { return b.lower(n) }

// NewDistinctOperator wraps any operator in the streaming distinct —
// the merge step of backends that union independently produced
// streams (shard fan-in).
func NewDistinctOperator(in Operator) Operator { return newDistinct(in) }

// Estimate scores the plan; malformed trees cost +Inf.
func (b *Backend) Estimate(n *plan.Node) plan.Estimate {
	return b.EstimateShared(n, new(EstimateMemo))
}

// EstimateMemo carries what EstimateShared learned about cover
// fragments from one candidate cover of a search to the next: which
// fragment subtrees validated, and what each one costs. Subtrees are
// remembered by identity, so the memo keeps them alive and freezes
// their estimates at first sight (statistics, execution feedback): it
// belongs to one search and dies with it. The zero value is ready to
// use; not safe for concurrent use.
type EstimateMemo struct {
	checked plan.Checker
	frags   map[*plan.Node]fragmentEstimate
}

type fragmentEstimate struct {
	plan.Estimate
	kind plan.Kind // the dialect the fragment extracted into
}

// EstimateShared is Estimate for the candidate covers of one search,
// which are built over shared fragment subtrees. A cover-shaped tree
// is taken apart: every fragment subtree is validated, extracted and
// planned once per memo, and the cover's estimate is coverEstimate over
// its fragments' figures — the arithmetic PlanJUCQ and PlanJUSCQ apply,
// so the result equals, bit for bit, the estimate Compile freezes for
// the same tree. Any other tree is planned whole, as Compile does.
func (b *Backend) EstimateShared(n *plan.Node, m *EstimateMemo) plan.Estimate {
	if est, ok := b.estimateCover(n, m); ok {
		return est
	}
	c, err := b.lower(n)
	if err != nil {
		return plan.Estimate{Cost: math.Inf(1)}
	}
	return c.est
}

// estimateCover is the fragment-granular half of EstimateShared; ok is
// false when n is not a cover, or mixes fragment dialects. Compile
// promotes the UCQ fragments of such a mix to single-atom-block USCQs,
// which plan under different tie-breaks, so it is costed whole, the way
// it would be compiled; no lowering produces it.
func (b *Backend) estimateCover(n *plan.Node, m *EstimateMemo) (est plan.Estimate, ok bool) {
	frags := plan.CoverFragments(n)
	if frags == nil {
		return est, false
	}
	inf := plan.Estimate{Cost: math.Inf(1)}
	if err := m.checked.Validate(n); err != nil {
		return inf, true
	}
	ests := make([]plan.Estimate, len(frags))
	for i, frag := range frags {
		fe, seen := m.frags[frag]
		if !seen {
			lo, err := plan.Extract(frag)
			fe.kind = lo.Kind
			switch {
			case err != nil:
				return inf, true
			case lo.Kind == plan.KindUCQ:
				p := PlanUCQ(lo.UCQ, b.DB, b.Profile)
				fe.Cost, fe.Card = p.EstCost, p.EstCard
			case lo.Kind == plan.KindUSCQ:
				p := PlanUSCQ(lo.USCQ, b.DB, b.Profile)
				fe.Cost, fe.Card = p.EstCost, p.EstCard
			default:
				return inf, true // a cover nested inside a fragment
			}
			if m.frags == nil {
				m.frags = make(map[*plan.Node]fragmentEstimate)
			}
			m.frags[frag] = fe
		}
		if fe.kind != m.frags[frags[0]].kind {
			return est, false
		}
		ests[i] = fe.Estimate
	}
	return coverEstimate(ests, b.Profile), true
}

// Estimate returns the compile-time estimate.
func (c *Compiled) Estimate() plan.Estimate { return c.est }

// Tree builds a fresh streaming operator pipeline for one run,
// returning it with an annotation callback that — once the tree has
// been drained — maps the operators' actual row counters (plus the
// estimates frozen in the plans) onto an EXPLAIN skeleton of the plan.
// Operator trees are single-use; call Tree again for another run.
func (c *Compiled) Tree(workers int) (Operator, func(at map[*plan.Node]*plan.ExplainNode)) {
	db, prof := c.b.DB, c.b.Profile
	switch c.kind {
	case plan.KindUCQ:
		if len(c.ucq.Plans) == 0 {
			return newUnion(headSchema(c.ucq.U.Head()), nil), func(map[*plan.Node]*plan.ExplainNode) {}
		}
		op := CompileUCQ(*c.ucq, db, prof, workers)
		return op, func(at map[*plan.Node]*plan.ExplainNode) {
			annotateUnionTree(op, c.node, at, c.ucq, nil)
		}
	case plan.KindUSCQ:
		if len(c.uscq.Plans) == 0 {
			return newUnion(nil, nil), func(map[*plan.Node]*plan.ExplainNode) {}
		}
		op := CompileUSCQ(*c.uscq, db, prof, workers)
		return op, func(at map[*plan.Node]*plan.ExplainNode) {
			annotateUnionTree(op, c.node, at, nil, c.uscq)
		}
	default:
		op, frags := c.buildCoverTree(workers)
		return op, func(at map[*plan.Node]*plan.ExplainNode) {
			c.annotateCoverTree(op, frags, at)
		}
	}
}

// Run builds a fresh operator tree, drains it, and annotates the
// EXPLAIN skeleton with the estimates frozen in the plans and the
// actual row counters the operators observed.
func (c *Compiled) Run(workers int) (*plan.RunResult, error) {
	root, at := plan.Skeleton(c.node)
	ex := &plan.Explain{Backend: c.b.Name(), EstCost: c.est.Cost, EstCard: c.est.Card, Root: root}
	op, annotate := c.Tree(workers)
	rel := Drain(op)
	annotate(at)
	return &plan.RunResult{Tuples: rel.Decode(c.b.DB.Dict), Explain: ex}, nil
}

// buildCoverTree assembles the streaming cover pipeline exactly like
// CompileJUCQ/CompileJUSCQ, but keeps the fragment roots in original
// fragment order — the hash join reorders its children (probe first,
// builds by size), which would scramle the IR mapping.
func (c *Compiled) buildCoverTree(workers int) (root Operator, frags []Operator) {
	db, prof := c.b.DB, c.b.Profile
	var n int
	var head []string
	var ests []float64
	if c.kind == plan.KindJUCQ {
		n = len(c.jucq.Frags)
		head = headSchema(c.jucq.J.Head)
	} else {
		n = len(c.juscq.Frags)
		head = headSchema(c.juscq.J.Head)
	}
	if n == 0 {
		return newUnion(head, nil), nil
	}
	perFrag := coverWorkerSplit(workers, n)
	frags = make([]Operator, n)
	ests = make([]float64, n)
	for i := 0; i < n; i++ {
		if c.kind == plan.KindJUCQ {
			frags[i] = CompileUCQ(c.jucq.Frags[i], db, prof, perFrag)
			ests[i] = c.jucq.Frags[i].EstCard
		} else {
			frags[i] = CompileUSCQ(c.juscq.Frags[i], db, prof, perFrag)
			ests[i] = c.juscq.Frags[i].EstCard
		}
	}
	var headTerms = c.coverHead()
	if n == 1 {
		return newDistinct(compileProjectNamed(frags[0], headTerms, db)), frags
	}
	probe, builds := coverJoinOrder(ests)
	hj := NewHashJoin(frags, probe, builds, workers)
	return newDistinct(compileProjectNamed(hj, headTerms, db)), frags
}

func (c *Compiled) coverHead() []query.Term {
	if c.kind == plan.KindJUCQ {
		return c.jucq.J.Head
	}
	return c.juscq.J.Head
}

// annotateCoverTree maps the cover pipeline's counters onto the IR:
// Distinct ← the root dedup, Project ← the head projection, Join ←
// the hash join, and each fragment subtree ← its Distinct(Union(...))
// pipeline.
func (c *Compiled) annotateCoverTree(op Operator, frags []Operator, at map[*plan.Node]*plan.ExplainNode) {
	distinctIR := c.node
	if distinctIR.Op != plan.OpDistinct || len(distinctIR.Inputs) != 1 {
		return
	}
	projectIR := distinctIR.Inputs[0]
	if projectIR.Op != plan.OpProject || len(projectIR.Inputs) != 1 {
		return
	}
	joinIR := projectIR.Inputs[0]
	setExplain(at[distinctIR], c.est.Card, c.est.Cost, op)
	if kids := op.Children(); len(kids) == 1 {
		projOp := kids[0]
		setExplain(at[projectIR], c.est.Card, plan.UnknownRows, projOp)
		if jk := projOp.Children(); len(jk) == 1 && len(frags) > 1 {
			setExplain(at[joinIR], plan.UnknownRows, plan.UnknownRows, jk[0])
		}
	}
	for i, fop := range frags {
		if i >= len(joinIR.Inputs) {
			break
		}
		if c.kind == plan.KindJUCQ {
			annotateUnionTree(fop, joinIR.Inputs[i], at, &c.jucq.Frags[i], nil)
		} else {
			annotateUnionTree(fop, joinIR.Inputs[i], at, nil, &c.juscq.Frags[i])
		}
	}
}

// annotateUnionTree maps a Distinct(Union(arms)) pipeline onto its IR
// subtree. Exactly one of up/sp is set (UCQ vs factorized USCQ).
func annotateUnionTree(op Operator, n *plan.Node, at map[*plan.Node]*plan.ExplainNode, up *UCQPlan, sp *USCQPlan) {
	if n.Op != plan.OpDistinct || len(n.Inputs) != 1 {
		return
	}
	if n.Inputs[0].Op == plan.OpProject {
		// Collapsed single-arm-union shape (plan.Rewrite): the IR has
		// no Union node, but the physical tree keeps its union stage —
		// map the single arm straight onto the projection.
		if up != nil {
			setExplain(at[n], up.EstCard, up.EstCost, op)
		} else {
			setExplain(at[n], sp.EstCard, sp.EstCost, op)
		}
		kids := op.Children()
		if len(kids) != 1 {
			return
		}
		arms := kids[0].Children()
		if len(arms) != 1 {
			return
		}
		if up != nil && len(up.Plans) == 1 {
			annotateArm(arms[0], n.Inputs[0], at, armSteps(up.Plans[0]), up.Plans[0].EstCard, up.Plans[0].EstCost)
		} else if sp != nil && len(sp.Plans) == 1 {
			annotateArm(arms[0], n.Inputs[0], at, scqSteps(sp.Plans[0]), sp.Plans[0].EstCard, sp.Plans[0].EstCost)
		}
		return
	}
	if n.Inputs[0].Op != plan.OpUnion {
		return
	}
	unionIR := n.Inputs[0]
	if up != nil {
		setExplain(at[n], up.EstCard, up.EstCost, op)
	} else {
		setExplain(at[n], sp.EstCard, sp.EstCost, op)
	}
	kids := op.Children()
	if len(kids) != 1 {
		return
	}
	unionOp := kids[0]
	setExplain(at[unionIR], plan.UnknownRows, plan.UnknownRows, unionOp)
	arms := unionOp.Children()
	for i, armOp := range arms {
		if i >= len(unionIR.Inputs) {
			break
		}
		if up != nil && i < len(up.Plans) {
			annotateArm(armOp, unionIR.Inputs[i], at, armSteps(up.Plans[i]), up.Plans[i].EstCard, up.Plans[i].EstCost)
		} else if sp != nil && i < len(sp.Plans) {
			annotateArm(armOp, unionIR.Inputs[i], at, scqSteps(sp.Plans[i]), sp.Plans[i].EstCard, sp.Plans[i].EstCost)
		}
	}
}

// armStep pairs one pipeline position with the body index it resolves
// and its planned output estimate (UnknownRows when the planner does
// not cost steps individually, as for SCQ blocks).
type armStep struct {
	pos     int
	estRows float64
	estCost float64
}

func armSteps(p CQPlan) []armStep {
	out := make([]armStep, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = armStep{pos: s.Atom, estRows: s.EstOut, estCost: s.EstCost}
	}
	return out
}

func scqSteps(p SCQPlan) []armStep {
	out := make([]armStep, len(p.Order))
	for i, b := range p.Order {
		out[i] = armStep{pos: b, estRows: plan.UnknownRows, estCost: plan.UnknownRows}
	}
	return out
}

// annotateArm maps one arm pipeline (project over a scan/filter/join
// chain) onto its IR projection. The chain below the projection holds
// one operator per plan step, bottom-up: the leaf is step 0 when it
// is a scan, or a synthetic singleton source (not a step) otherwise.
func annotateArm(armOp Operator, armIR *plan.Node, at map[*plan.Node]*plan.ExplainNode, steps []armStep, estCard, estCost float64) {
	if armIR.Op != plan.OpProject || len(armIR.Inputs) != 1 {
		return
	}
	setExplain(at[armIR], estCard, estCost, armOp)
	// Walk the single-child chain below the projection.
	var chain []Operator
	kids := armOp.Children()
	for len(kids) == 1 {
		chain = append(chain, kids[0])
		kids = kids[0].Children()
	}
	if len(chain) == 0 {
		return
	}
	if _, ok := chain[len(chain)-1].(*singletonOp); ok {
		chain = chain[:len(chain)-1]
	}
	// chain is top-down; steps are bottom-up.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	byPos := make(map[int]*plan.ExplainNode)
	for _, acc := range plan.AccessLeaves(armIR.Inputs[0]) {
		byPos[acc.Pos] = at[acc]
	}
	var topRows int64 = plan.UnknownRows
	var topEst float64 = plan.UnknownRows
	for k, op := range chain {
		if k >= len(steps) {
			break
		}
		e := byPos[steps[k].pos]
		if e == nil {
			continue
		}
		setExplain(e, steps[k].estRows, steps[k].estCost, op)
		topRows = op.Stats().Rows
		topEst = steps[k].estRows
	}
	// Interior Join/SemiJoin nodes observe the rows flowing into the
	// projection (the full body's output).
	annotateBodyOps(armIR.Inputs[0], at, topEst, topRows)
}

// annotateBodyOps stamps the arm body's Join/SemiJoin nodes with the
// body output figures.
func annotateBodyOps(n *plan.Node, at map[*plan.Node]*plan.ExplainNode, estRows float64, rows int64) {
	if n.Op != plan.OpJoin && n.Op != plan.OpSemiJoin {
		return
	}
	if e := at[n]; e != nil {
		e.EstRows = estRows
		e.ActualRows = rows
	}
	for _, in := range n.Inputs {
		annotateBodyOps(in, at, plan.UnknownRows, plan.UnknownRows)
	}
}

// setExplain records one operator's estimate and observed row count.
func setExplain(e *plan.ExplainNode, estRows, estCost float64, op Operator) {
	if e == nil {
		return
	}
	e.EstRows = estRows
	e.EstCost = estCost
	if op != nil {
		e.ActualRows = op.Stats().Rows
	}
}

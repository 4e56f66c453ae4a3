package engine

// The native implementation of plan.Backend: one recursive compiler
// over the plan IR. A union arm — a Project over its access leaves —
// is planned under the profile by PlanCQ (or PlanSCQ, when factorized)
// and built by CompileCQ (CompileSCQ); a fragment — DISTINCT over the
// union of its arms, or over its single arm where Rewrite collapsed the
// union — combines its arms' estimates with the profile's union
// arithmetic; a cover — DISTINCT over the head projection of a join of
// fragments — combines its fragments' with coverEstimate and joins them
// through the streaming hash join. Every node's estimate is frozen at
// Compile. Operator trees are single-use, so each run builds a fresh
// one and records, as it goes, which operator answers for which IR
// node: annotating EXPLAIN with the actual row counters is a loop over
// that record.

import (
	"fmt"
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

// Compiled is a plan tree compiled for the native engine. It implements
// plan.Executable; composing backends (internal/shard) reach the
// per-run operator tree through Tree instead of the opaque Run.
type Compiled struct {
	b     *Backend
	node  *plan.Node
	root  physical
	nbind int // bounds the EXPLAIN bindings one run records
}

// Compile validates the plan and compiles it into a reusable
// executable.
func (b *Backend) Compile(n *plan.Node) (plan.Executable, error) {
	c, err := b.CompilePlan(n)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// CompilePlan is Compile returning the concrete *Compiled, whose Tree
// method hands composing backends a fresh operator pipeline per run.
// Validation runs here — not only in core — so plans handed to the
// backend directly are checked too.
func (b *Backend) CompilePlan(n *plan.Node) (*Compiled, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	root, err := (&compiler{b: b}).compile(n)
	if err != nil {
		return nil, err
	}
	return &Compiled{b: b, node: n, root: root, nbind: plan.NodeCount(n)}, nil
}

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
// fragment subtrees validated, and each one's compiled plan. Subtrees
// are remembered by identity, so the memo keeps them alive and freezes
// their estimates at first sight (statistics, execution feedback): it
// belongs to one search and dies with it. The zero value is ready to
// use; not safe for concurrent use.
type EstimateMemo struct {
	checked plan.Checker
	frags   map[*plan.Node]physical
}

// EstimateShared is Estimate for the candidate covers of one search,
// which are built over shared fragment subtrees: the tree goes through
// the compiler Compile uses, but every cover fragment is validated and
// compiled once per memo. The estimate therefore equals, bit for bit,
// the one Compile freezes for the same tree.
func (b *Backend) EstimateShared(n *plan.Node, m *EstimateMemo) plan.Estimate {
	if err := m.checked.Validate(n); err != nil {
		return plan.Estimate{Cost: math.Inf(1)}
	}
	if m.frags == nil {
		m.frags = make(map[*plan.Node]physical)
	}
	p, err := (&compiler{b: b, frags: m.frags}).compile(n)
	if err != nil {
		return plan.Estimate{Cost: math.Inf(1)}
	}
	return p.estimate()
}

// Estimate returns the compile-time estimate.
func (c *Compiled) Estimate() plan.Estimate { return c.root.estimate() }

// Tree builds a fresh streaming operator pipeline for one run,
// returning it with an annotation callback that — once the tree has
// been drained — writes every IR node's frozen estimate and its
// operator's actual row count onto an EXPLAIN skeleton of the plan.
// Operator trees are single-use; call Tree again for another run.
func (c *Compiled) Tree(workers int) (Operator, func(at map[*plan.Node]*plan.ExplainNode)) {
	r := &run{db: c.b.DB, prof: c.b.Profile, bound: make([]binding, 0, c.nbind)}
	return c.root.build(r, workers), r.annotate
}

// Run builds a fresh operator tree, drains it, and annotates the
// EXPLAIN skeleton with the frozen estimates and the actual row
// counters the operators observed.
func (c *Compiled) Run(workers int) (*plan.RunResult, error) {
	root, at := plan.Skeleton(c.node)
	est := c.Estimate()
	ex := &plan.Explain{Backend: c.b.Name(), EstCost: est.Cost, EstCard: est.Card, Root: root}
	op, annotate := c.Tree(workers)
	rel := Drain(op)
	annotate(at)
	return &plan.RunResult{Tuples: rel.Decode(c.b.DB.Dict), Explain: ex}, nil
}

// physical is a compiled Distinct-rooted subtree: a fragment or a
// cover.
type physical interface {
	estimate() plan.Estimate
	// build assembles a fresh operator tree for one run within the
	// worker budget, recording its EXPLAIN bindings on r.
	build(r *run, workers int) Operator
}

// compiler turns a validated plan tree into its physical plan. Given
// frags (EstimateShared's memo), each cover fragment compiles once and
// is recalled by subtree identity.
type compiler struct {
	b     *Backend
	frags map[*plan.Node]physical
}

func (c *compiler) compile(n *plan.Node) (physical, error) {
	if frags := plan.CoverFragments(n); frags != nil {
		return c.cover(n, frags)
	}
	if n.Op != plan.OpDistinct {
		return nil, fmt.Errorf("plan: root must be distinct over one input, got %s/%d", n.Op, len(n.Inputs))
	}
	return c.fragment(n)
}

// coverPlan is a compiled cover: DISTINCT over the projection onto the
// head of the hash join of its fragments, in a join order fixed from
// their estimated cardinalities.
type coverPlan struct {
	distinct, project, join *plan.Node
	frags                   []physical
	probe                   int
	builds                  []int
	est                     plan.Estimate
}

func (c *compiler) cover(n *plan.Node, frags []*plan.Node) (*coverPlan, error) {
	p := &coverPlan{distinct: n, project: n.Inputs[0], join: n.Inputs[0].Inputs[0], frags: make([]physical, len(frags))}
	ests := make([]plan.Estimate, len(frags))
	cards := make([]float64, len(frags))
	for i, f := range frags {
		fp, ok := c.frags[f]
		if !ok {
			var err error
			if fp, err = c.compile(f); err != nil {
				return nil, err
			}
			if c.frags != nil {
				c.frags[f] = fp
			}
		}
		p.frags[i] = fp
		ests[i] = fp.estimate()
		cards[i] = ests[i].Card
	}
	p.est = coverEstimate(ests, c.b.Profile)
	p.probe, p.builds = coverJoinOrder(cards)
	return p, nil
}

func (p *coverPlan) estimate() plan.Estimate { return p.est }

// build splits the worker budget between the fragment pipelines and
// the hash join's build drain (coverWorkerSplit).
func (p *coverPlan) build(r *run, workers int) Operator {
	per := coverWorkerSplit(workers, len(p.frags))
	ops := make([]Operator, len(p.frags))
	for i, f := range p.frags {
		ops[i] = f.build(r, per)
	}
	join := NewHashJoin(ops, p.probe, p.builds, workers)
	proj := compileProjectNamed(join, p.project.Head, r.db)
	root := newDistinct(proj)
	r.bind(p.join, plan.UnknownRows, plan.UnknownRows, join)
	r.bind(p.project, p.est.Card, plan.UnknownRows, proj)
	r.bind(p.distinct, p.est.Card, p.est.Cost, root)
	return root
}

// fragmentPlan is a compiled fragment: DISTINCT over the union of its
// arms, or over its one arm where Rewrite collapsed the union (union
// is then nil).
type fragmentPlan struct {
	distinct, union *plan.Node
	arms            []armPlan
	est             plan.Estimate
}

func (c *compiler) fragment(n *plan.Node) (*fragmentPlan, error) {
	f := &fragmentPlan{distinct: n}
	arms := n.Inputs
	switch in := n.Inputs[0]; in.Op {
	case plan.OpUnion:
		f.union, arms = in, in.Inputs
	case plan.OpProject:
	default:
		return nil, fmt.Errorf("plan: distinct input must be union or project, got %s", in.Op)
	}
	f.arms = make([]armPlan, len(arms))
	factorized := false
	for i, arm := range arms { // projections: Validate checked union arms
		if err := c.arm(arm, &f.arms[i]); err != nil {
			return nil, err
		}
		factorized = factorized || arm.Factorized
	}
	// The profile's sampling shortcut applies to unions of CQs only.
	costed := len(f.arms)
	if !factorized {
		costed = c.b.Profile.sampledArms(costed)
	}
	var sum plan.Estimate
	for i := range f.arms[:costed] {
		e := f.arms[i].estimate()
		sum.Cost += e.Cost
		sum.Card += e.Card
	}
	f.est = unionEstimate(sum, costed, len(f.arms), c.b.Profile)
	return f, nil
}

func (f *fragmentPlan) estimate() plan.Estimate { return f.est }

// build runs the arms through the parallel union when the budget
// allows (NewUnionParallel degrades to the sequential one otherwise).
func (f *fragmentPlan) build(r *run, workers int) Operator {
	ops := make([]Operator, len(f.arms))
	for i := range f.arms {
		ops[i] = f.arms[i].build(r)
	}
	in := ops[0]
	if f.union != nil {
		in = NewUnionParallel(in.Schema(), ops, workers)
		r.bind(f.union, plan.UnknownRows, plan.UnknownRows, in)
	}
	root := newDistinct(in)
	r.bind(f.distinct, f.est.Card, f.est.Cost, root)
	return root
}

// armPlan is one union arm — a Project over its body — planned under
// the profile over the atoms of its access leaves (kept in Pos order).
// Exactly one of cq and scq is set.
type armPlan struct {
	n      *plan.Node
	leaves []*plan.Node
	cq     *CQPlan
	scq    *SCQPlan
}

func (c *compiler) arm(n *plan.Node, a *armPlan) error {
	a.n, a.leaves = n, plan.AccessLeaves(n.Inputs[0])
	db, prof := c.b.DB, c.b.Profile
	if n.Factorized {
		s := query.SCQ{Name: n.Name, Head: n.Head, Blocks: make([][]query.Atom, len(a.leaves))}
		for i, acc := range a.leaves {
			s.Blocks[i] = acc.Atoms
		}
		p := PlanSCQ(s, db, prof)
		a.scq = &p
	} else {
		q := query.CQ{Name: n.Name, Head: n.Head, Atoms: make([]query.Atom, len(a.leaves))}
		for i, acc := range a.leaves {
			if len(acc.Atoms) != 1 {
				return fmt.Errorf("plan: non-factorized arm has a %d-atom access block", len(acc.Atoms))
			}
			q.Atoms[i] = acc.Atoms[0]
		}
		p := PlanCQ(q, db, prof)
		a.cq = &p
	}
	return nil
}

func (a *armPlan) estimate() plan.Estimate {
	if a.cq != nil {
		return plan.Estimate{Cost: a.cq.EstCost, Card: a.cq.EstCard}
	}
	return plan.Estimate{Cost: a.scq.EstCost, Card: a.scq.EstCard}
}

// build assembles the arm's pipeline: every plan step's operator answers
// for the access leaf it reads, the last one also for the Join or
// SemiJoin topping the body, and the projection for the arm. SCQ blocks
// are not costed one by one, so their estimates stay unknown.
func (a *armPlan) build(r *run) Operator {
	var proj, body Operator
	bodyRows := float64(plan.UnknownRows)
	if a.cq != nil {
		proj, body = compileCQ(a.cq, r.db, r.prof, r, a.leaves)
		bodyRows = a.cq.Steps[len(a.cq.Steps)-1].EstOut
	} else {
		proj, body = compileSCQ(a.scq, r.db, r.prof, r, a.leaves)
	}
	if top := a.n.Inputs[0]; top.Op == plan.OpJoin || top.Op == plan.OpSemiJoin {
		r.bind(top, bodyRows, plan.UnknownRows, body)
	}
	est := a.estimate()
	r.bind(a.n, est.Card, est.Cost, proj)
	return proj
}

// run is one execution's build state: the database, the profile, and
// the EXPLAIN record — which operator answers for which IR node, beside
// the node's frozen estimate.
type run struct {
	db    *DB
	prof  *Profile
	bound []binding
}

type binding struct {
	n          *plan.Node
	rows, cost float64
	op         Operator
}

// bind records n's estimate and the operator whose row counter is n's
// actual row count.
func (r *run) bind(n *plan.Node, rows, cost float64, op Operator) {
	r.bound = append(r.bound, binding{n: n, rows: rows, cost: cost, op: op})
}

// annotate writes the run's record onto an EXPLAIN skeleton of the
// plan; call it once the tree has been drained.
func (r *run) annotate(at map[*plan.Node]*plan.ExplainNode) {
	for _, b := range r.bound {
		if e := at[b.n]; e != nil {
			e.EstRows, e.EstCost = b.rows, b.cost
			e.ActualRows = b.op.Stats().Rows
		}
	}
}

// evaluate compiles n on the native backend and runs it sequentially;
// a plan the backend rejects answers nothing.
func evaluate(n *plan.Node, db *DB, prof *Profile) Answer {
	c, err := NewBackend(db, prof).CompilePlan(n)
	if err != nil {
		return Answer{}
	}
	op, _ := c.Tree(1)
	return Answer{Tuples: Drain(op).Decode(db.Dict), EstCost: c.Estimate().Cost}
}

// EvaluateCQ answers a CQ (with DISTINCT) on the native backend;
// observed cardinalities flow into prof.Feedback when enabled.
func EvaluateCQ(q query.CQ, db *DB, prof *Profile) Answer {
	return EvaluateUCQ(query.UCQ{Name: q.Name, Disjuncts: []query.CQ{q}}, db, prof)
}

// EvaluateUCQ answers a UCQ on the native backend.
func EvaluateUCQ(u query.UCQ, db *DB, prof *Profile) Answer {
	return evaluate(plan.FromUCQ(u), db, prof)
}

// EvaluateUSCQ answers a USCQ on the native backend.
func EvaluateUSCQ(u query.USCQ, db *DB, prof *Profile) Answer {
	return evaluate(plan.FromUSCQ(u), db, prof)
}

// EvaluateJUCQ answers a JUCQ on the native backend.
func EvaluateJUCQ(j query.JUCQ, db *DB, prof *Profile) Answer {
	return evaluate(plan.FromJUCQ(j), db, prof)
}

// EvaluateJUSCQ answers a JUSCQ on the native backend.
func EvaluateJUSCQ(j query.JUSCQ, db *DB, prof *Profile) Answer {
	return evaluate(plan.FromJUSCQ(j), db, prof)
}

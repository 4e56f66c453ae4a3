package engine

// The native implementation of plan.Backend: one recursive compiler
// over the plan IR. A union arm — a Project over its access leaves,
// each leaf's atoms one block of alternatives (a single atom unless
// the arm is factorized) — is planned under the profile by planArm,
// straight from the leaves, and built by compileArm; a fragment —
// DISTINCT over the union of its arms, or over its single arm where
// Rewrite collapsed the union — combines its arms' estimates with the
// profile's union arithmetic; a cover — DISTINCT over the head
// projection of a join of fragments — combines its fragments' with
// coverEstimate and joins them through the streaming hash join. Every
// node's estimate is frozen at Compile. Building an operator tree
// records, as it goes, which operator answers for which IR node, so
// annotating EXPLAIN with the actual row counters is a loop over that
// record. Operators reset themselves in Open, so a tree outlives its
// run: Run keeps built trees in a per-Compiled pool and re-opens one
// built for the same worker budget instead of building again. That is
// safe because building a tree reads only the plan and the worker
// budget, and Open reads everything the tree takes from the database:
// each atom's table, and the dictionary ids of the plan's constants and
// parameters (query.Parameterize). A constant compiles as a parameter
// does: the build numbers each distinct one after the plan's
// parameters, a run resolves its arguments and the constants to
// dictionary ids once, and Open binds the operators to them, so a
// parameterized plan compiles once for all its instances.

import (
	"fmt"
	"math"
	"slices"
	"sync"

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
	b       *Backend
	node    *plan.Node
	root    physical
	nbind   int // bounds the EXPLAIN bindings one run records
	nparams int // the arguments a run needs
	// states holds the *runState of finished runs for Run to re-open. A
	// sync.Pool, so idle states are freed by the garbage collector
	// rather than held for as long as the plan is cached.
	states sync.Pool
}

// runState is what a run leaves for the next: its operator tree, the
// worker budget the tree was split for, the arguments its operators
// read, the tree's EXPLAIN bindings resolved to skeleton indexes, and,
// from the first reuse on, the EXPLAIN template later runs copy.
type runState struct {
	workers int
	root    Operator
	args    *boundArgs
	bound   []binding
	tmpl    *plan.ExplainTemplate
}

// Compile validates the plan and compiles it into a reusable
// executable; a parameterized plan binds its arguments per Run.
func (b *Backend) Compile(n *plan.Node) (plan.Executable, error) {
	c, err := b.CompilePlan(n)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// CompilePlan is Compile returning the concrete *Compiled, whose Tree
// method hands composing backends a fresh operator pipeline per run.
// Validation runs here, as plan.Backend's Compile contract requires:
// core does not validate the trees it hands over.
func (b *Backend) CompilePlan(n *plan.Node) (*Compiled, error) {
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	root, err := (&compiler{b: b}).compile(n)
	if err != nil {
		return nil, err
	}
	return &Compiled{b: b, node: n, root: root, nbind: plan.NodeCount(n), nparams: plan.NumParams(n)}, nil
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
// their estimates at first sight: it belongs to one search and dies with it. The zero value is ready to
// use; not safe for concurrent use.
type EstimateMemo struct {
	checked plan.Checker
	frags   map[*plan.Node]*fragmentPlan
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
		m.frags = make(map[*plan.Node]*fragmentPlan)
	}
	p, err := (&compiler{b: b, frags: m.frags}).compile(n)
	if err != nil {
		return plan.Estimate{Cost: math.Inf(1)}
	}
	return p.estimate()
}

// Estimate returns the compile-time estimate.
func (c *Compiled) Estimate() plan.Estimate { return c.root.estimate() }

// Tree builds a fresh streaming operator pipeline for one run with
// the plan's parameters bound to args, returning it with an annotation
// callback that — once the tree has been drained — writes every IR
// node's frozen estimate and its operator's actual row count onto an
// EXPLAIN skeleton of the plan. The tree is the caller's: Run's pool
// never sees it. args must pass plan.CheckArgs.
func (c *Compiled) Tree(workers int, args ...string) (Operator, func(at map[*plan.Node]*plan.ExplainNode)) {
	r := c.newRun()
	root := c.root.build(r, workers)
	r.args.resolve(c.b.DB.Dict, args)
	return root, r.annotate
}

func (c *Compiled) newRun() *run {
	r := &run{db: c.b.DB, bound: make([]binding, 0, c.nbind)}
	if c.nparams > 0 {
		r.args = &boundArgs{ids: make([]int64, c.nparams), found: make([]bool, c.nparams)}
	}
	return r
}

// Run drains an operator tree, its parameters bound to args, and
// annotates a fresh EXPLAIN skeleton with the frozen estimates and the
// actual row counters the operators observed. The tree comes from the
// pool when it was built for the same worker budget; otherwise Run
// builds one. Either way the run resolves its arguments and the plan's
// constants, and Open resets every operator, binds it to them and
// resolves its table, so a pooled tree answers as a fresh one would
// after any write. The tree goes back to the pool afterwards. Safe for
// concurrent use: each run owns the state it took.
func (c *Compiled) Run(workers int, args ...string) (*plan.RunResult, error) {
	if err := plan.CheckArgs(c.nparams, args); err != nil {
		return nil, err
	}
	var nodes []plan.ExplainNode
	st, _ := c.states.Get().(*runState)
	if st != nil && st.workers == workers {
		if st.tmpl == nil {
			st.tmpl = plan.NewExplainTemplate(c.node)
		}
		nodes = st.tmpl.New(args)
	} else {
		st, nodes = c.newState(workers, args)
	}
	st.args.resolve(c.b.DB.Dict, args)
	rel := Drain(st.root)
	for _, b := range st.bound {
		e := &nodes[b.at]
		e.EstRows, e.EstCost = b.rows, b.cost
		e.ActualRows = b.op.Stats().Rows
	}
	c.states.Put(st)
	est := c.Estimate()
	ex := &plan.Explain{Backend: c.b.Name(), EstCost: est.Cost, EstCard: est.Card, Root: &nodes[0]}
	return &plan.RunResult{Tuples: rel.Decode(c.b.DB.Dict), Explain: ex}, nil
}

// newState builds the operator tree of a run state along with the
// first run's EXPLAIN skeleton, which also places each binding's node.
// No template is made here: a plan run once (every cold query) would
// pay for one it never copies.
func (c *Compiled) newState(workers int, args []string) (*runState, []plan.ExplainNode) {
	r := c.newRun()
	st := &runState{workers: workers, root: c.root.build(r, workers), args: r.args}
	at := make(map[*plan.Node]int32, c.nbind)
	nodes := plan.FlatSkeleton(c.node, args, func(i int, n *plan.Node) { at[n] = int32(i) })
	for i := range r.bound {
		r.bound[i].at = at[r.bound[i].n]
	}
	st.bound = r.bound
	return st, nodes
}

// physical is a compiled Distinct-rooted subtree: a fragment or a
// cover.
type physical interface {
	estimate() plan.Estimate
	// build assembles a fresh operator tree within the worker budget,
	// recording its EXPLAIN bindings on r.
	build(r *run, workers int) Operator
}

// compiler turns a validated plan tree into its physical plan. Given
// frags (EstimateShared's memo), each cover fragment compiles once and
// is recalled by subtree identity.
type compiler struct {
	b     *Backend
	frags map[*plan.Node]*fragmentPlan
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
	frags                   []*fragmentPlan
	probe                   int
	builds                  []int
	est                     plan.Estimate
}

func (c *compiler) cover(n *plan.Node, frags []*plan.Node) (*coverPlan, error) {
	p := &coverPlan{distinct: n, project: n.Inputs[0], join: n.Inputs[0].Inputs[0], frags: make([]*fragmentPlan, len(frags))}
	ests := make([]plan.Estimate, len(frags))
	cards := make([]float64, len(frags))
	for i, f := range frags {
		fp, ok := c.frags[f]
		if !ok {
			var err error
			if fp, err = c.fragment(f); err != nil {
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
	proj := compileProjectNamed(join, p.project.Head, r)
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
	arms, err := plan.Arms(n)
	if err != nil {
		return nil, err
	}
	f := &fragmentPlan{distinct: n}
	if in := n.Inputs[0]; in.Op == plan.OpUnion {
		f.union = in
	}
	f.arms = make([]armPlan, len(arms))
	factorized := false
	for i, arm := range arms {
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
		e := f.arms[i].est
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
// the profile over the blocks of its access leaves, which planArm puts
// in plan order.
type armPlan struct {
	n      *plan.Node
	leaves []*plan.Node
	steps  []armStep
	est    plan.Estimate
}

func (c *compiler) arm(n *plan.Node, a *armPlan) error {
	leaves, err := plan.ArmLeaves(n)
	if err != nil {
		return err
	}
	a.n, a.leaves = n, leaves
	a.steps, a.est = planArm(leaves, c.b.DB, c.b.Profile)
	return nil
}

// build assembles the arm's pipeline: every plan step's operator answers
// for the access leaf it reads, the last one also for the Join or
// SemiJoin topping the body, and the projection for the arm.
func (a *armPlan) build(r *run) Operator {
	proj, body := compileArm(a, r)
	if top := a.n.Inputs[0]; top.Op == plan.OpJoin || top.Op == plan.OpSemiJoin {
		r.bind(top, a.steps[len(a.steps)-1].estOut, plan.UnknownRows, body)
	}
	r.bind(a.n, a.est.Card, a.est.Cost, proj)
	return proj
}

// run is one execution's build state: the database, the arguments
// the tree's constants and parameters read (nil for a plan without
// any), and the EXPLAIN record — which operator answers for which IR
// node, beside the node's frozen estimate.
type run struct {
	db    *DB
	args  *boundArgs
	bound []binding
}

// slot returns the argument slot a constant term reads: a parameter's
// own index, or, for any other constant, one numbered after the plan's
// parameters, shared by every occurrence of the same name in the tree.
func (r *run) slot(t query.Term) int32 {
	if r.args == nil {
		r.args = &boundArgs{}
	}
	if t.Param {
		return int32(t.ParamIndex())
	}
	a := r.args
	if k := slices.Index(a.consts, t.Name); k >= 0 {
		return int32(len(a.ids) - len(a.consts) + k)
	}
	a.consts = append(a.consts, t.Name)
	a.ids, a.found = append(a.ids, 0), append(a.found, false)
	return int32(len(a.ids) - 1)
}

// boundArgs is one run's arguments, then the plan's constants, resolved
// to dictionary ids, shared by every operator of its tree that reads a
// constant. A run state keeps it, so a pooled tree is rebound, not
// rebuilt.
type boundArgs struct {
	ids    []int64
	found  []bool   // false: the name is not in the dictionary
	consts []string // the constants' names, in slot order after the arguments
}

// resolve looks each argument and each constant up once; a nil a (a
// plan without either) has nothing to resolve.
func (a *boundArgs) resolve(d *Dictionary, args []string) {
	if a == nil {
		return
	}
	n := len(a.ids) - len(a.consts)
	for i := range n {
		a.ids[i], a.found[i] = d.Lookup(args[i])
	}
	for k, name := range a.consts {
		a.ids[n+k], a.found[n+k] = d.Lookup(name)
	}
}

// lookup returns slot p's id and whether the dictionary has it;
// unbound arguments (nil a) match nothing.
func (a *boundArgs) lookup(p int) (int64, bool) {
	if a == nil || p >= len(a.ids) {
		return 0, false
	}
	return a.ids[p], a.found[p]
}

type binding struct {
	n          *plan.Node
	at         int32 // n's skeleton index, set for a run state
	rows, cost float64
	op         Operator
}

// bind records n's estimate and the operator whose row counter is n's
// actual row count.
func (r *run) bind(n *plan.Node, rows, cost float64, op Operator) {
	r.bound = append(r.bound, binding{n: n, rows: rows, cost: cost, op: op})
}

// annotate writes the run's record onto an EXPLAIN skeleton of the
// plan; call it once the tree has been drained. Run's pooled states
// annotate by skeleton index instead.
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

// EvaluateCQ answers a CQ (with DISTINCT) on the native backend.
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

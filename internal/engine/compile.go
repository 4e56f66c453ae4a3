package engine

// Compilation of planned union arms into streaming operator trees
// (operator.go). An arm's body is a conjunction of blocks, each the
// atoms of one access leaf: one atom, unless the arm is factorized, so
// a CQ is the SCQ of one-atom blocks and one compiler serves both. The
// pipeline row layout of an arm is the set of its variables in order of
// first use along the plan; each plan step becomes a scan (first
// unbound one-atom block), a filter (every alternative fully bound or
// an existence probe), or an index-nested-loop join whose alternatives'
// matches are unioned per input row. An existence probe is a role atom
// with one side bound and, on the other, a variable that no later step
// and not the head reads: the paper's semijoin reducer, run as "has the
// bound side a neighbour?" — one row out per input row that has a
// match, instead of one per match.

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/query"
)

// pipelineLayout assigns every variable of the arm's blocks, the leaves
// in plan order, a column, in order of first use along the plan.
func pipelineLayout(leaves []*plan.Node) (map[string]int, []string) {
	colOf := map[string]int{}
	var cols []string
	for _, leaf := range leaves {
		for _, a := range leaf.Atoms {
			for _, t := range a.Args {
				if t.IsVar() {
					if _, ok := colOf[t.Name]; !ok {
						colOf[t.Name] = len(cols)
						cols = append(cols, t.Name)
					}
				}
			}
		}
	}
	return colOf, cols
}

// newAtomJoin compiles one atom against the current layout and bound
// mask. It reads nothing from the database: a constant or parameter
// becomes a reference to its argument slot (run.slot), and the atom's
// table and the slots' ids are read at every Open (atomJoin.open).
func newAtomJoin(a query.Atom, colOf map[string]int, bound []bool, r *run) *atomJoin {
	j := &atomJoin{db: r.db, pred: a.Pred, arity: a.Arity()}
	ref := func(t query.Term) termRef {
		if t.Const {
			slot := r.slot(t)
			j.args = r.args
			return termRef{isConst: true, slot: slot}
		}
		c := colOf[t.Name]
		return termRef{col: c, bound: bound[c]}
	}
	j.s = ref(a.Args[0])
	if j.arity > 1 {
		j.o = ref(a.Args[1])
		j.sameVar = a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	}
	return j
}

// markExistential makes j an existence probe when one side is bound and
// the other is a variable whose last reader (noteReads) is this step.
// R(z, z) never qualifies: its sides are bound or unbound together.
func (j *atomJoin) markExistential(last []int, step int) {
	if j.arity != 2 {
		return
	}
	switch {
	case j.s.isBound() && !j.o.isBound():
		j.exists = last[j.o.col] == step
	case j.o.isBound() && !j.s.isBound():
		j.exists = last[j.s.col] == step
	}
}

// noteReads records step as the last reader of every variable in args
// that has a column. Run over the steps in order and then over the head
// as step len(steps), it leaves in last each column's last reading step.
func noteReads(last []int, colOf map[string]int, step int, args []query.Term) {
	for _, t := range args {
		if c, ok := colOf[t.Name]; ok && t.IsVar() {
			last[c] = step
		}
	}
}

// markBound records an atom's variables as bound after its step runs.
func markBound(a query.Atom, colOf map[string]int, bound []bool) {
	for _, t := range a.Args {
		if t.IsVar() {
			bound[colOf[t.Name]] = true
		}
	}
}

// compileStep appends one plan step to the pipeline: the first wholly
// unbound atom becomes a source scan; a step whose every alternative is
// fully bound or an existence probe becomes a filter; everything else
// an index-nested-loop join.
func compileStep(cur Operator, cols []string, alts []*atomJoin) Operator {
	if cur == nil {
		if len(alts) == 1 && alts[0].unbound() {
			return newScan(cols, alts[0], alts[0].db)
		}
		cur = newSingleton(cols)
	}
	for _, a := range alts {
		if !a.filters() {
			return newJoin(cur, alts)
		}
	}
	return newFilter(cur, alts)
}

// compileProject closes a pipeline with head projection; head
// constants and parameters read their slots of r's arguments at Open.
func compileProject(cur Operator, head []query.Term, colOf map[string]int, r *run) Operator {
	p := newProject(cur, headSchema(head), make([]int, len(head)))
	for i, h := range head {
		switch c, ok := colOf[h.Name]; {
		case h.Const:
			if p.consts == nil {
				p.consts = make([]int64, len(head))
			}
			p.srcCols[i] = -1 - int(r.slot(h))
			p.args = r.args
		case ok:
			p.srcCols[i] = c
		default:
			// Head variable never bound by any atom: no row qualifies,
			// so its column is never read.
			p.unbound = true
		}
	}
	return p
}

// compileArm builds the streaming operator tree of a planned arm —
// source → (filter|join)* → project, duplicates preserved — and returns
// the body pipeline under the projection too. Each step's block becomes
// one join whose alternatives are the block's atoms (their matches are
// unioned per input row), or one filter when every alternative is fully
// bound or an existence probe, passing a row when any alternative
// matches it. It records on r each step's operator and estimates
// against the access leaf it reads.
func compileArm(a *armPlan, r *run) (proj, body Operator) {
	head := a.n.Head
	colOf, cols := pipelineLayout(a.leaves)
	last := make([]int, len(cols))
	for k, leaf := range a.leaves {
		for _, at := range leaf.Atoms {
			noteReads(last, colOf, k, at.Args)
		}
	}
	noteReads(last, colOf, len(a.steps), head)
	bound := make([]bool, len(cols))
	var cur Operator
	for k, s := range a.steps {
		block := a.leaves[k].Atoms
		alts := make([]*atomJoin, len(block))
		for i, at := range block {
			alts[i] = newAtomJoin(at, colOf, bound, r)
			alts[i].markExistential(last, k)
		}
		cur = compileStep(cur, cols, alts)
		for _, at := range block {
			markBound(at, colOf, bound)
		}
		r.bind(a.leaves[k], s.estOut, s.estCost, cur)
	}
	if cur == nil {
		cur = newSingleton(cols)
	}
	return compileProject(cur, head, colOf, r), cur
}

// compileProjectNamed projects a pipeline whose schema already names
// its columns (a fragment join) onto the overall query head.
func compileProjectNamed(cur Operator, head []query.Term, r *run) Operator {
	colOf := map[string]int{}
	for i, v := range cur.Schema() {
		if _, ok := colOf[v]; !ok {
			colOf[v] = i
		}
	}
	return compileProject(cur, head, colOf, r)
}

// NewProjectNamed is the exported form of compileProjectNamed for
// composing backends (internal/shard) that assemble their own fragment
// joins, one per run, and need the head projection above them. The
// head carries no parameters: bind them first (query.Term.Bind). Its
// constants are resolved here, as Compiled.Tree resolves a tree's.
func NewProjectNamed(cur Operator, head []query.Term, db *DB) Operator {
	r := &run{db: db}
	p := compileProjectNamed(cur, head, r)
	r.args.resolve(db.Dict, nil)
	return p
}

// CoverJoinOrder is the exported form of coverJoinOrder for composing
// backends that must fix one global join order across shards.
func CoverJoinOrder(ests []float64) (probe int, builds []int) {
	return coverJoinOrder(ests)
}

// coverJoinOrder picks the fragment join order from the plan's
// estimated fragment cardinalities: the largest fragment drives the
// streaming probe pass, the others become build tables loaded
// smallest-first (cheapest hash tables early, so an empty build side
// short-circuits as soon as possible).
func coverJoinOrder(ests []float64) (probe int, builds []int) {
	probe = 0
	for i, e := range ests {
		if e > ests[probe] {
			probe = i
		}
	}
	for i := range ests {
		if i != probe {
			builds = append(builds, i)
		}
	}
	sort.SliceStable(builds, func(a, b int) bool { return ests[builds[a]] < ests[builds[b]] })
	return probe, builds
}

// coverWorkerSplit divides one worker budget between the fragment
// pipelines and the cross-fragment build drain: multi-fragment plans
// spend the budget across fragments (the hash join drains build sides
// in parallel, each fragment pipeline getting an equal share for its
// internal parallel union), while a single-fragment plan hands the
// whole budget to the fragment's union.
func coverWorkerSplit(workers, frags int) int {
	if frags <= 1 {
		return workers
	}
	per := workers / frags
	if per < 1 {
		per = 1
	}
	return per
}

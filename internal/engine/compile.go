package engine

// Compilation of planned queries into streaming operator trees
// (operator.go). The pipeline row layout of one CQ/SCQ is the set of
// its variables in order of first use, exactly as the materializing
// executor laid them out; each plan step becomes a scan (first unbound
// atom), a filter (fully bound atom), or an index-nested-loop join.

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/query"
)

// pipelineLayout assigns every variable of the atom sequence a column,
// in order of first use.
func pipelineLayout(atomSeq [][]query.Term) (map[string]int, []string) {
	colOf := map[string]int{}
	var cols []string
	for _, args := range atomSeq {
		for _, t := range args {
			if t.IsVar() {
				if _, ok := colOf[t.Name]; !ok {
					colOf[t.Name] = len(cols)
					cols = append(cols, t.Name)
				}
			}
		}
	}
	return colOf, cols
}

// newAtomJoin compiles one atom against the current layout and bound
// mask. Constants are resolved once; a constant absent from the
// dictionary makes the atom dead (it can match nothing).
func newAtomJoin(a query.Atom, access StepAccess, colOf map[string]int, bound []bool, db *DB) *atomJoin {
	j := &atomJoin{db: db, pred: a.Pred, arity: a.Arity(), access: access}
	ref := func(t query.Term) termRef {
		if t.Const {
			id, ok := db.Dict.Lookup(t.Name)
			if !ok {
				j.dead = true
			}
			return termRef{isConst: true, constID: id}
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

// accessOf derives the physical access path of an atom from which of
// its arguments are bound — the same dispatch estimateStep performs.
func accessOf(a query.Atom, colOf map[string]int, bound []bool) StepAccess {
	isBound := func(t query.Term) bool { return t.Const || bound[colOf[t.Name]] }
	if a.Arity() == 1 {
		if isBound(a.Args[0]) {
			return AccessConceptProbe
		}
		return AccessConceptScan
	}
	sB, oB := isBound(a.Args[0]), isBound(a.Args[1])
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	switch {
	case sB && (oB || sameVar):
		return AccessRoleProbe
	case sB:
		return AccessRoleFwd
	case oB:
		return AccessRoleRev
	default:
		return AccessRoleScan
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
// unbound atom becomes a source scan; fully bound atoms become
// filters; everything else an index-nested-loop join.
func compileStep(cur Operator, cols []string, alts []*atomJoin, prof *Profile) Operator {
	if cur == nil {
		if len(alts) == 1 && alts[0].unbound() {
			return newScan(cols, alts[0], alts[0].db, prof)
		}
		cur = newSingleton(cols)
	}
	if len(alts) == 1 && alts[0].fullyBound() {
		return newFilter(cur, alts[0], prof)
	}
	return newJoin(cur, alts, prof)
}

// compileProject closes a pipeline with head projection.
func compileProject(cur Operator, head []query.Term, colOf map[string]int, db *DB) Operator {
	srcCols := make([]int, len(head))
	consts := make([]int64, len(head))
	dead := false
	for i, h := range head {
		srcCols[i] = -1
		if h.Const {
			id, ok := db.Dict.Lookup(h.Name)
			if !ok {
				dead = true
			}
			consts[i] = id
			continue
		}
		if c, ok := colOf[h.Name]; ok {
			srcCols[i] = c
		} else {
			// Head variable never bound by any atom: no row qualifies.
			dead = true
		}
	}
	return newProject(cur, headSchema(head), srcCols, consts, dead)
}

// CompileCQ builds the streaming operator tree of a planned CQ:
// source → (filter|join)* → project. Duplicates are preserved (callers
// apply Distinct). prof (optional, may be nil) receives per-operator
// cardinality feedback through prof.Feedback when executions close.
func CompileCQ(p CQPlan, db *DB, prof *Profile) Operator {
	proj, _ := compileCQ(&p, db, prof, nil, nil)
	return proj
}

// compileCQ is CompileCQ that also returns the body pipeline under the
// projection and records on r (when non-nil) each plan step's operator
// against the access leaf it reads — leaves indexed like p.Q.Atoms.
func compileCQ(p *CQPlan, db *DB, prof *Profile, r *run, leaves []*plan.Node) (proj, body Operator) {
	q := p.Q
	seq := make([][]query.Term, len(p.Steps))
	for i, s := range p.Steps {
		seq[i] = q.Atoms[s.Atom].Args
	}
	colOf, cols := pipelineLayout(seq)
	bound := make([]bool, len(cols))
	var cur Operator
	for _, s := range p.Steps {
		a := q.Atoms[s.Atom]
		j := newAtomJoin(a, s.Access, colOf, bound, db)
		cur = compileStep(cur, cols, []*atomJoin{j}, prof)
		markBound(a, colOf, bound)
		if r != nil {
			r.bind(leaves[s.Atom], s.EstOut, s.EstCost, cur)
		}
	}
	if cur == nil {
		cur = newSingleton(cols)
	}
	return compileProject(cur, q.Head, colOf, db), cur
}

// CompileSCQ builds the streaming tree of a planned semi-conjunctive
// query: each block becomes one join whose alternatives are the block's
// atoms (their matches are unioned per input row — the factorized
// evaluation). Duplicates are preserved, like CompileCQ.
func CompileSCQ(p SCQPlan, db *DB, prof *Profile) Operator {
	proj, _ := compileSCQ(&p, db, prof, nil, nil)
	return proj
}

// compileSCQ is compileCQ for SCQ plans; leaves are indexed like the
// blocks, and their estimates are unknown — the planner costs whole
// block orders, not steps.
func compileSCQ(p *SCQPlan, db *DB, prof *Profile, r *run, leaves []*plan.Node) (proj, body Operator) {
	s := p.S
	var seq [][]query.Term
	for _, block := range s.Blocks {
		for _, a := range block {
			seq = append(seq, a.Args)
		}
	}
	colOf, cols := pipelineLayout(seq)
	bound := make([]bool, len(cols))
	var cur Operator
	for _, bi := range p.Order {
		block := s.Blocks[bi]
		alts := make([]*atomJoin, len(block))
		for i, a := range block {
			alts[i] = newAtomJoin(a, accessOf(a, colOf, bound), colOf, bound, db)
		}
		cur = compileStep(cur, cols, alts, prof)
		for _, a := range block {
			markBound(a, colOf, bound)
		}
		if r != nil {
			r.bind(leaves[bi], plan.UnknownRows, plan.UnknownRows, cur)
		}
	}
	if cur == nil {
		cur = newSingleton(cols)
	}
	return compileProject(cur, s.Head, colOf, db), cur
}

// compileProjectNamed projects a pipeline whose schema already names
// its columns (a fragment join) onto the overall query head.
func compileProjectNamed(cur Operator, head []query.Term, db *DB) Operator {
	colOf := map[string]int{}
	for i, v := range cur.Schema() {
		if _, ok := colOf[v]; !ok {
			colOf[v] = i
		}
	}
	return compileProject(cur, head, colOf, db)
}

// NewProjectNamed is the exported form of compileProjectNamed for
// composing backends (internal/shard) that assemble their own fragment
// joins and need the head projection above them.
func NewProjectNamed(cur Operator, head []query.Term, db *DB) Operator {
	return compileProjectNamed(cur, head, db)
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

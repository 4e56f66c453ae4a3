package engine

import (
	"fmt"
	"strings"

	"repro/internal/plan"
	"repro/internal/query"
)

// StepAccess identifies the physical access path of a plan step.
type StepAccess int

const (
	// AccessConceptScan reads a whole concept table.
	AccessConceptScan StepAccess = iota
	// AccessConceptProbe checks membership of a bound term.
	AccessConceptProbe
	// AccessRoleScan reads a whole role table.
	AccessRoleScan
	// AccessRoleFwd expands a bound subject through the forward index.
	AccessRoleFwd
	// AccessRoleRev expands a bound object through the reverse index.
	AccessRoleRev
	// AccessRoleProbe checks a fully bound pair.
	AccessRoleProbe
)

func (a StepAccess) String() string {
	switch a {
	case AccessConceptScan:
		return "concept-scan"
	case AccessConceptProbe:
		return "concept-probe"
	case AccessRoleScan:
		return "role-scan"
	case AccessRoleFwd:
		return "index-fwd"
	case AccessRoleRev:
		return "index-rev"
	default:
		return "pair-probe"
	}
}

// PlanStep is one pipelined step of a CQ plan: join the rows produced
// so far with one atom, through a chosen access path.
type PlanStep struct {
	Atom    int
	Access  StepAccess
	EstIn   float64
	EstOut  float64
	EstCost float64
}

// CQPlan is a left-deep pipelined plan for one conjunctive query.
type CQPlan struct {
	Q       query.CQ
	Steps   []PlanStep
	EstCard float64
	EstCost float64
}

// String renders the plan EXPLAIN-style.
func (p CQPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CQ %s (est cost %.1f, est rows %.1f)\n", p.Q.Name, p.EstCost, p.EstCard)
	for _, s := range p.Steps {
		fmt.Fprintf(&b, "  %-14s %-40s rows≈%-10.1f cost≈%.1f\n",
			s.Access, p.Q.Atoms[s.Atom].String(), s.EstOut, s.EstCost)
	}
	return b.String()
}

// PlanCQ builds a plan for q with a greedy join-order heuristic:
// repeatedly pick the remaining atom with the smallest estimated output
// cardinality given the variables bound so far (index access preferred
// automatically, since bound-variable expansions estimate far below
// cross products).
func PlanCQ(q query.CQ, db *DB, prof *Profile) CQPlan {
	st := db.Stats()
	n := len(q.Atoms)
	used := make([]bool, n)
	bound := map[string]bool{}
	plan := CQPlan{Q: q}
	card := 1.0
	cost := 0.0
	for picked := 0; picked < n; picked++ {
		bestIdx := -1
		var best PlanStep
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			step := estimateStep(q.Atoms[i], bound, card, st, prof, db.Layout)
			step.Atom = i
			if bestIdx < 0 || step.EstOut < best.EstOut ||
				(step.EstOut == best.EstOut && step.EstCost < best.EstCost) {
				bestIdx = i
				best = step
			}
		}
		used[bestIdx] = true
		for _, t := range q.Atoms[bestIdx].Args {
			if t.IsVar() {
				bound[t.Name] = true
			}
		}
		plan.Steps = append(plan.Steps, best)
		card = best.EstOut
		cost += best.EstCost
	}
	plan.EstCard = card
	plan.EstCost = cost
	return plan
}

// estimateStep estimates joining the current intermediate result (est.
// cardinality in) with one atom, choosing the access path from which
// arguments are bound. When the profile carries execution feedback
// (Profile.Feedback), the statistics-derived fanout is replaced by the
// observed per-operator ratio from earlier executions.
func estimateStep(a query.Atom, bound map[string]bool, in float64, st *Statistics, prof *Profile, layout Layout) PlanStep {
	step := estimateStepStatic(a, bound, in, st, prof, layout)
	if prof.Feedback != nil {
		if ratio, ok := prof.Feedback.Fanout(a.Pred, step.Access); ok {
			out := in * ratio
			// Rescale the emit-proportional share of the cost.
			step.EstCost += (out - step.EstOut) * prof.CEmit
			if step.EstCost < 0 {
				step.EstCost = 0
			}
			step.EstOut = out
		}
	}
	return step
}

// estimateStepStatic is the purely statistics-driven estimate.
func estimateStepStatic(a query.Atom, bound map[string]bool, in float64, st *Statistics, prof *Profile, layout Layout) PlanStep {
	isBound := func(t query.Term) bool { return t.Const || bound[t.Name] }
	layoutF := 1.0
	if layout == LayoutRDF {
		layoutF = prof.RDFSlotFactor
	}
	ent := float64(st.TotalEntities)
	if ent < 1 {
		ent = 1
	}
	var step PlanStep
	step.EstIn = in
	if a.Arity() == 1 {
		cardA := float64(st.CardConcept(a.Pred))
		if isBound(a.Args[0]) {
			step.Access = AccessConceptProbe
			sel := cardA / ent
			step.EstOut = in * sel
			step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
		} else {
			step.Access = AccessConceptScan
			step.EstOut = in * cardA
			step.EstCost = in*cardA*prof.CScanTuple*layoutF + step.EstOut*prof.CEmit
		}
		return step
	}
	cardR := float64(st.CardRole(a.Pred))
	dS := float64(st.RoleDistS[a.Pred])
	dO := float64(st.RoleDistO[a.Pred])
	if dS < 1 {
		dS = 1
	}
	if dO < 1 {
		dO = 1
	}
	sBound, oBound := isBound(a.Args[0]), isBound(a.Args[1])
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	switch {
	case sBound && (oBound || sameVar):
		step.Access = AccessRoleProbe
		sel := cardR / (dS * dO)
		if sel > 1 {
			sel = 1
		}
		step.EstOut = in * sel
		step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
	case sBound:
		step.Access = AccessRoleFwd
		fan := cardR / dS
		step.EstOut = in * fan
		step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
	case oBound:
		step.Access = AccessRoleRev
		fan := cardR / dO
		step.EstOut = in * fan
		step.EstCost = in*prof.CProbe*layoutF + step.EstOut*prof.CEmit
	default:
		step.Access = AccessRoleScan
		out := in * cardR
		if sameVar {
			// diagonal: R(x,x) keeps ~card/max(dS,dO) tuples
			d := dS
			if dO > d {
				d = dO
			}
			out = in * cardR / d
		}
		step.EstOut = out
		step.EstCost = in*cardR*prof.CScanTuple*layoutF + step.EstOut*prof.CEmit
	}
	return step
}

// SCQPlan orders the blocks of a semi-conjunctive query. Each step
// unions the alternative atoms of one block — the factorized evaluation
// that makes USCQs cheaper than expanded UCQs [33].
type SCQPlan struct {
	S       query.SCQ
	Order   []int
	EstCard float64
	EstCost float64
}

// PlanSCQ greedily orders blocks by estimated output cardinality, with
// a block's estimate being the sum over its alternative atoms.
func PlanSCQ(s query.SCQ, db *DB, prof *Profile) SCQPlan {
	st := db.Stats()
	n := len(s.Blocks)
	used := make([]bool, n)
	bound := map[string]bool{}
	plan := SCQPlan{S: s}
	card, cost := 1.0, 0.0
	for picked := 0; picked < n; picked++ {
		best := -1
		var bestOut, bestCost float64
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			var outSum, costSum float64
			for _, a := range s.Blocks[i] {
				step := estimateStep(a, bound, card, st, prof, db.Layout)
				outSum += step.EstOut
				costSum += step.EstCost
			}
			if best < 0 || outSum < bestOut {
				best, bestOut, bestCost = i, outSum, costSum
			}
		}
		used[best] = true
		for _, a := range s.Blocks[best] {
			for _, t := range a.Args {
				if t.IsVar() {
					bound[t.Name] = true
				}
			}
		}
		plan.Order = append(plan.Order, best)
		card = bestOut
		cost += bestCost
	}
	plan.EstCard = card
	plan.EstCost = cost
	return plan
}

// sampledArms is how many leading arms of an n-arm CQ union the
// profile costs: SampleSize once the union has more than SampleThreshold
// arms, extrapolating the rest — exactly the behaviour that misleads
// GDL/RDBMS on Q9–Q11 in the paper — else all n.
func (p *Profile) sampledArms(n int) int {
	if p.SampleThreshold > 0 && n > p.SampleThreshold {
		return min(p.SampleSize, n)
	}
	return n
}

// unionEstimate completes the estimate of a DISTINCT union of n arms
// from the summed figures of the first costed ones: scaled up to all n
// when only a sample was costed, the card an upper bound (DISTINCT may
// shrink it), plus the dedup of every row entering DISTINCT.
func unionEstimate(sum plan.Estimate, costed, n int, prof *Profile) plan.Estimate {
	if costed < n {
		scale := float64(n) / float64(costed)
		sum.Cost *= scale
		sum.Card *= scale
	}
	return plan.Estimate{Cost: sum.Cost + sum.Card*prof.CDedup, Card: sum.Card}
}

// coverEstimate combines per-fragment estimates into the estimate of
// the cover that joins them — the one place the profile's cover-level
// arithmetic lives. Compile and EstimateShared both end here, so the
// cost the search assigns a cover is bit for bit the estimate of the
// plan compiled from it, whether its fragments were compiled just now
// or recalled from an earlier candidate. Each fragment pays its own
// cost plus materialization; the join is linear in the inputs (hash
// join); the output is estimated with the independence assumption,
// crudely contained by the smallest non-empty input.
func coverEstimate(frags []plan.Estimate, prof *Profile) plan.Estimate {
	cost := 0.0
	for _, f := range frags {
		cost += f.Cost + f.Card*prof.CMat
	}
	card := 1.0
	for _, f := range frags {
		card *= maxf(f.Card, 1)
	}
	for _, f := range frags {
		if f.Card > 0 && f.Card < card {
			card = f.Card
		}
	}
	for _, f := range frags {
		cost += f.Card * prof.CProbe
	}
	cost += card * prof.CEmit
	return plan.Estimate{Cost: cost, Card: card}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

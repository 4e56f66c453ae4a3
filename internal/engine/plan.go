package engine

import (
	"slices"

	"repro/internal/plan"
	"repro/internal/query"
)

// armStep is the estimate of one pipelined step of an arm's plan: join
// the rows produced so far with the block of alternative atoms of one
// access leaf — step k reads the arm's leaf k, once planArm has put the
// leaves in plan order.
type armStep struct {
	estOut  float64
	estCost float64
}

// planArm orders an arm's blocks — each access leaf's atoms, whose
// matches one step unions per input row (the factorized evaluation that
// makes USCQs cheaper than expanded UCQs [33]) — greedily: repeatedly
// the remaining block with the smallest estimated output given the
// variables bound so far, a tie going to the cheaper step, then to the
// earlier leaf. A block's estimate is the sum over its alternatives; a
// CQ arm's blocks have one atom each. Index access wins by itself, since
// bound-variable expansions estimate far below cross products. It
// reorders leaves in place, from Pos order into plan order.
func planArm(leaves []*plan.Node, db *DB, prof *Profile) ([]armStep, plan.Estimate) {
	st := db.Stats()
	bound := make([]string, 0, 8) // the variables bound so far: an arm has few
	steps := make([]armStep, len(leaves))
	card, cost := 1.0, 0.0
	for k := range leaves {
		best := &steps[k]
		chosen := -1
		for i := k; i < len(leaves); i++ {
			var s armStep
			for _, a := range leaves[i].Atoms {
				out, c := estimateStep(a, bound, card, st, prof, db.Layout)
				s.estOut += out
				s.estCost += c
			}
			if chosen < 0 || s.estOut < best.estOut ||
				(s.estOut == best.estOut && s.estCost < best.estCost) {
				chosen, *best = i, s
			}
		}
		// Move the chosen leaf to step k; the rest stay in Pos order.
		leaf := leaves[chosen]
		copy(leaves[k+1:chosen+1], leaves[k:chosen])
		leaves[k] = leaf
		for _, a := range leaf.Atoms {
			for _, t := range a.Args {
				if t.IsVar() && !slices.Contains(bound, t.Name) {
					bound = append(bound, t.Name)
				}
			}
		}
		card = best.estOut
		cost += best.estCost
	}
	return steps, plan.Estimate{Cost: cost, Card: card}
}

// estimateStep estimates the output and cost of joining the current
// intermediate result (est. cardinality in) with one atom, through the
// access path its bound arguments allow.
func estimateStep(a query.Atom, bound []string, in float64, st *Statistics, prof *Profile, layout Layout) (out, cost float64) {
	isBound := func(t query.Term) bool { return t.Const || slices.Contains(bound, t.Name) }
	layoutF := 1.0
	if layout == LayoutRDF {
		layoutF = prof.RDFSlotFactor
	}
	ent := float64(st.TotalEntities)
	if ent < 1 {
		ent = 1
	}
	if a.Arity() == 1 {
		cardA := float64(st.CardConcept(a.Pred))
		if isBound(a.Args[0]) { // membership probe
			out = in * (cardA / ent)
			return out, in*prof.CProbe*layoutF + out*prof.CEmit
		}
		out = in * cardA // concept scan
		return out, in*cardA*prof.CScanTuple*layoutF + out*prof.CEmit
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
	case sBound && (oBound || sameVar): // pair probe
		sel := cardR / (dS * dO)
		if sel > 1 {
			sel = 1
		}
		out = in * sel
	case sBound: // forward index
		out = in * (cardR / dS)
	case oBound: // reverse index
		out = in * (cardR / dO)
	default: // role scan
		out = in * cardR
		if sameVar {
			// diagonal: R(x,x) keeps ~card/max(dS,dO) tuples
			d := dS
			if dO > d {
				d = dO
			}
			out = in * cardR / d
		}
		return out, in*cardR*prof.CScanTuple*layoutF + out*prof.CEmit
	}
	return out, in*prof.CProbe*layoutF + out*prof.CEmit
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

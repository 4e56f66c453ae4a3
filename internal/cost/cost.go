// Package cost implements the paper's external cost estimation function
// ε (Section 6.1): textbook formulas over stored-table statistics
// (cardinalities, distinct values per attribute) under the uniform
// distribution and independent distributions assumptions, with joins
// assumed linear in their input sizes (hash joins with enough memory)
// and data access costed by comparing the applicable indexes.
//
// Unlike the engine profiles' estimators (which emulate each RDBMS's
// explain facility, shortcuts included), this model treats queries of
// all sizes uniformly — the property that makes GDL/ext beat GDL/RDBMS
// on the largest reformulations under Postgres (Section 6.3).
package cost

import (
	"math"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// Constants are the calibratable coefficients of the model.
type Constants struct {
	Scan   float64 // per tuple scanned sequentially
	Probe  float64 // per index probe
	Emit   float64 // per produced tuple
	Dedup  float64 // per tuple entering DISTINCT
	Mat    float64 // per tuple materialized (WITH)
	Join   float64 // per tuple flowing through a hash join
	Xfer   float64 // per tuple repartitioned through a shuffle exchange
	RDFMul float64 // access multiplier on the RDF layout
}

// DefaultConstants are reasonable pre-calibration values.
func DefaultConstants() Constants {
	// Materializing and joining intermediate tuples (temp-table write,
	// hash build/probe, final DISTINCT) is substantially more expensive
	// per row than an index probe — this is what makes semijoin
	// reducers (generalized covers) pay off, cf. Sections 5.2 and 6.3.
	// Moving a row through an exchange (copy into a staging batch, a
	// bounded-channel hop, copy out) costs more than a hash-join probe
	// but well under a materialization.
	return Constants{Scan: 1, Probe: 1.5, Emit: 0.5, Dedup: 1.2, Mat: 3, Join: 1.5, Xfer: 2, RDFMul: float64(engine.DefaultRDFSlots)}
}

// Estimate is a (cost, cardinality) pair in abstract cost units — the
// plan IR's estimate type.
type Estimate = plan.Estimate

// Model is the ε estimator bound to a database's statistics.
type Model struct {
	Stats  *engine.Statistics
	Layout engine.Layout
	C      Constants
}

// NewModel builds a model over the given database.
func NewModel(db *engine.DB) *Model {
	return &Model{Stats: db.Stats(), Layout: db.Layout, C: DefaultConstants()}
}

// ExchangeCost prices repartitioning rows through the shard backend's
// shuffle exchange: linear in rows moved, like the join term.
func (m *Model) ExchangeCost(rows float64) float64 {
	if rows < 0 {
		return 0
	}
	return rows * m.C.Xfer
}

func (m *Model) accessMul() float64 {
	if m.Layout == engine.LayoutRDF {
		return m.C.RDFMul
	}
	return 1
}

func (m *Model) atomStep(a query.Atom, bound map[string]bool, in, ent, mul float64) (out, cost float64) {
	isBound := func(t query.Term) bool { return t.Const || bound[t.Name] }
	if a.Arity() == 1 {
		cardA := float64(m.Stats.CardConcept(a.Pred))
		if isBound(a.Args[0]) {
			out = in * cardA / ent
			cost = in*m.C.Probe*mul + out*m.C.Emit
			return
		}
		out = in * cardA
		cost = in*cardA*m.C.Scan*mul + out*m.C.Emit
		return
	}
	cardR := float64(m.Stats.CardRole(a.Pred))
	dS := maxf(float64(m.Stats.RoleDistS[a.Pred]), 1)
	dO := maxf(float64(m.Stats.RoleDistO[a.Pred]), 1)
	sB, oB := isBound(a.Args[0]), isBound(a.Args[1])
	sameVar := a.Args[0].IsVar() && a.Args[1].IsVar() && a.Args[0].Name == a.Args[1].Name
	switch {
	case sB && (oB || sameVar):
		sel := minf(cardR/(dS*dO), 1)
		out = in * sel
		cost = in*m.C.Probe*mul + out*m.C.Emit
	case sB:
		out = in * cardR / dS
		cost = in*m.C.Probe*mul + out*m.C.Emit
	case oB:
		out = in * cardR / dO
		cost = in*m.C.Probe*mul + out*m.C.Emit
	default:
		out = in * cardR
		if sameVar {
			out = in * cardR / maxf(dS, dO)
		}
		cost = in*cardR*m.C.Scan*mul + out*m.C.Emit
	}
	return
}

// Join combines per-fragment estimates into the estimate of the cover
// that joins them — the one place the cover-level arithmetic lives, so
// a cover costs the same whether its fragments were estimated just now
// or recalled from an earlier candidate of the same search. Each
// fragment pays its own cost plus materialization; the join is linear
// in its inputs; the output is the independence product capped by the
// smallest input.
func (m *Model) Join(frags []Estimate) Estimate {
	cost := 0.0
	for _, fe := range frags {
		cost += fe.Cost + fe.Card*m.C.Mat
	}
	card := 1.0
	minCard := -1.0
	for _, fe := range frags {
		card *= maxf(fe.Card, 1)
		cost += fe.Card * m.C.Join
		if minCard < 0 || fe.Card < minCard {
			minCard = fe.Card
		}
	}
	if minCard >= 0 && minCard < card {
		card = minCard
	}
	cost += card * m.C.Emit
	return Estimate{Cost: cost, Card: card}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Estimate scores a logical plan tree with the ε formulas. A malformed
// tree costs +Inf (search treats it as "never pick this").
func (m *Model) Estimate(n *plan.Node) Estimate {
	return m.EstimateShared(n, nil)
}

// EstimateShared is Estimate for the candidate covers of one search,
// which are built over shared fragment subtrees: a cover-shaped tree is
// taken apart, each fragment subtree is estimated once — frags
// remembers the result by subtree identity — and the cover is the Join
// of its fragments' estimates. Any other tree is a single fragment and
// is estimated directly. A nil frags remembers nothing. The map must
// not outlive the statistics it was filled under.
func (m *Model) EstimateShared(n *plan.Node, frags map[*plan.Node]Estimate) Estimate {
	subs := plan.CoverFragments(n)
	if subs == nil {
		return m.fragment(n)
	}
	ests := make([]Estimate, len(subs))
	for i, sub := range subs {
		e, ok := frags[sub]
		if !ok {
			e = m.fragment(sub)
			if frags != nil {
				frags[sub] = e
			}
		}
		ests[i] = e
	}
	return m.Join(ests)
}

// fragment estimates a union of arms — a cover fragment, or a whole plan
// that is no cover: the sum of the arms plus DISTINCT. Every arm is
// estimated, no sampling, regardless of size. A tree of any other shape
// (a cover nested inside a fragment among them) is not one the formulas
// decompose and costs +Inf.
func (m *Model) fragment(n *plan.Node) Estimate {
	arms, err := plan.Arms(n)
	if err != nil {
		return Estimate{Cost: math.Inf(1)}
	}
	var e Estimate
	for _, arm := range arms {
		ae, err := m.arm(arm)
		if err != nil {
			return Estimate{Cost: math.Inf(1)}
		}
		e.Cost += ae.Cost
		e.Card += ae.Card
	}
	e.Cost += e.Card * m.C.Dedup
	return e
}

// arm estimates one union arm: greedy smallest-output-first join order
// over its access leaves (taken in Pos order, ties to the earlier),
// independence across predicates, uniformity within attributes. A leaf
// is a block of alternatives whose matches add up (a factorized SCQ
// block); a plain CQ arm is a list of one-atom blocks.
func (m *Model) arm(n *plan.Node) (Estimate, error) {
	leaves, err := plan.ArmLeaves(n)
	if err != nil {
		return Estimate{}, err
	}
	used := make([]bool, len(leaves))
	bound := map[string]bool{}
	card, cost := 1.0, 0.0
	mul := m.accessMul()
	ent := maxf(float64(m.Stats.TotalEntities), 1)
	for range leaves {
		best := -1
		var bOut, bCost float64
		for i, acc := range leaves {
			if used[i] {
				continue
			}
			var out, c float64
			for _, a := range acc.Atoms {
				o, cc := m.atomStep(a, bound, card, ent, mul)
				out += o
				c += cc
			}
			if best < 0 || out < bOut {
				best, bOut, bCost = i, out, c
			}
		}
		used[best] = true
		for _, a := range leaves[best].Atoms {
			for _, t := range a.Args {
				if t.IsVar() {
					bound[t.Name] = true
				}
			}
		}
		card = bOut
		cost += bCost
	}
	return Estimate{Cost: cost, Card: card}, nil
}

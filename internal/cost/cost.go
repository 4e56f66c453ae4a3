// Package cost is the paper's external cost estimation function ε
// (Section 6.1): textbook formulas over stored-table statistics
// (cardinalities, distinct values per attribute) under the uniform
// distribution and independent distributions assumptions, with joins
// assumed linear in their input sizes (hash joins with enough memory)
// and data access costed by comparing the applicable indexes.
//
// Those formulas are the engine's one estimator; ε is the profile it
// reads (engine.ProfileExt). Unlike the RDBMS profiles, which emulate
// each system's explain facility, shortcuts included, ε has no
// sampling and treats queries of all sizes uniformly — the property
// that makes GDL/ext beat GDL/RDBMS on the largest reformulations under
// Postgres (Section 6.3). GDL/ext and GDL/RDBMS thus differ only in the
// profile the estimator reads.
package cost

import (
	"repro/internal/engine"
	"repro/internal/plan"
)

// xfer is the cost of moving one row through the shard backend's
// shuffle exchange (copy into a staging batch, a bounded-channel hop,
// copy out): more than a hash-join probe, well under a materialization.
const xfer = 2

// Estimate is a (cost, cardinality) pair in abstract cost units — the
// plan IR's estimate type.
type Estimate = plan.Estimate

// Model is ε bound to a database: the engine's estimator over
// engine.ProfileExt.
type Model struct {
	backend *engine.Backend
}

// NewModel builds a model over the given database.
func NewModel(db *engine.DB) *Model {
	return &Model{backend: engine.NewBackend(db, engine.ProfileExt())}
}

// Estimate scores a logical plan tree. A malformed tree costs +Inf
// (search treats it as "never pick this").
func (m *Model) Estimate(n *plan.Node) Estimate {
	return m.backend.Estimate(n)
}

// EstimateShared is Estimate for the candidate covers of one search:
// see engine.Backend.EstimateShared.
func (m *Model) EstimateShared(n *plan.Node, memo *engine.EstimateMemo) Estimate {
	return m.backend.EstimateShared(n, memo)
}

// ExchangeCost prices repartitioning rows through the shard backend's
// shuffle exchange: linear in rows moved, like the join term.
func (m *Model) ExchangeCost(rows float64) float64 {
	if rows < 0 {
		return 0
	}
	return rows * xfer
}

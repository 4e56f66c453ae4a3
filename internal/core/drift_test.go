package core

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/lubm"
)

// driftFactor is the documented cost-model accuracy bound: on every
// LUBM query's root-cover plan, the external model's cardinality
// estimate and the actual root row counter stay within a factor of 10
// of each other, after +1 smoothing so empty results do not divide by
// zero (a smoothed q-error, max(est+1, act+1)/min(est+1, act+1)).
//
// The bound is deliberately checked on Croot plans only: a root cover
// is one fragment whose estimate composes a handful of per-CQ figures,
// the estimator's home turf (observed worst case ≈ 9 on Q7, where 8
// estimated rows materialize as 0). UCQ-expansion estimates compound
// error across hundreds of disjuncts and drift by orders of magnitude
// (Q8: ≈37k estimated vs 5 actual) — exactly the miscalibration the
// paper's cover search exists to route around, so it is documented
// here rather than asserted.
const driftFactor = 10.0

// TestCostModelDriftGuard pins the external model to the engine's
// actual per-operator row counters: if a change to the statistics, the
// estimation formulas, or the plan lowering pushes root-cover estimates
// further than driftFactor from observed cardinalities, this fails
// before the search quality quietly degrades.
func TestCostModelDriftGuard(t *testing.T) {
	a := lubmAnswerer(t)
	for _, q := range lubm.Queries() {
		res, err := a.Answer(q, StrategyCroot)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if res.Explain == nil || res.Explain.Root == nil {
			t.Fatalf("%s: no explain", q.Name)
		}
		est := cost.NewModel(a.DB).Estimate(res.Plan).Card
		actual := float64(res.Explain.Root.ActualRows)
		if est < 0 {
			t.Fatalf("%s: negative estimate %f", q.Name, est)
		}
		hi, lo := est+1, actual+1
		if hi < lo {
			hi, lo = lo, hi
		}
		if qerr := hi / lo; qerr > driftFactor {
			t.Errorf("%s: estimate %.1f vs actual %.0f rows drifts %.1fx (> %.0fx)",
				q.Name, est, actual, qerr, driftFactor)
		}
	}
}

package search

import (
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/reformulate"
)

// TestGDLAllocBound guards what the cover search allocates — lowering
// each candidate's fragments, validating and estimating them — under
// both profiles of the engine's one estimator: GDL/ext and GDL/RDBMS
// over Q1–Q13 on one university, the reformulations already memoized. Measured on go1.24/amd64 a pass allocates about 9.52 MB
// under ε and 11.51 MB under the Postgres profile; the bounds leave
// about 5 % headroom.
func TestGDLAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 1}, db)
	db.Finalize()
	tb := lubm.TBox()
	ref := reformulate.New(tb)
	for _, tc := range []struct {
		name  string
		est   func() Estimator
		bound uint64
	}{
		{"gdl-ext", func() Estimator { return &ExtEstimator{Model: cost.NewModel(db)} }, 9766 << 10},
		{"gdl-rdbms", func() Estimator { return &RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()} }, 11802 << 10},
	} {
		pass := func() {
			for _, q := range lubm.Queries() {
				if res := GDL(q, tb, ref, tc.est(), Options{}); res.Err != nil {
					t.Fatalf("%s %s: %v", tc.name, q.Name, res.Err)
				}
			}
		}
		pass() // memoize the reformulations
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			pass()
		}
		runtime.ReadMemStats(&after)
		perPass := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per pass over Q1–Q13", tc.name, perPass)
		if perPass > tc.bound {
			t.Errorf("%s: %d bytes per pass over Q1–Q13, bound %d", tc.name, perPass, tc.bound)
		}
	}
}

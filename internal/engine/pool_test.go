package engine_test

// Pooled batch storage under real plans: one Compiled run from many
// goroutines must answer exactly as it does alone (a batch shared by
// two live owners shows up as a wrong answer), and a warm run must
// reuse its storage instead of growing it again.

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
)

// compileLUBM plans LUBM query qi (0-based) under strategy s on a
// one-university database and compiles the plan on the native backend.
func compileLUBM(t *testing.T, db *engine.DB, qi int, s core.Strategy) *engine.Compiled {
	t.Helper()
	prof := engine.ProfilePostgres()
	res, err := core.New(lubm.TBox(), db, prof).Answer(lubm.Queries()[qi], s)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewBackend(db, prof).CompilePlan(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func lubmDB() *engine.DB {
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 1}, db)
	db.Finalize()
	return db
}

// answers runs c once and returns its tuples, sorted.
func answers(t testing.TB, c *engine.Compiled, workers int) []string {
	rr, err := c.Run(workers)
	if err != nil {
		t.Error(err)
		return nil
	}
	out := make([]string, len(rr.Tuples))
	for i, tu := range rr.Tuples {
		out[i] = strings.Join(tu, ",")
	}
	slices.Sort(out)
	return out
}

// TestCompiledConcurrentRuns: 8 goroutines × 20 runs of one Compiled,
// at one worker and at four, all answer what a lone run answers.
func TestCompiledConcurrentRuns(t *testing.T) {
	db := lubmDB()
	for _, qi := range []int{2, 8} { // Q3, Q9
		for _, s := range []core.Strategy{core.StrategyUCQ, core.StrategyGDLExt} {
			c := compileLUBM(t, db, qi, s)
			for _, workers := range []int{1, 4} {
				want := answers(t, c, workers)
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 20; i++ {
							if got := answers(t, c, workers); !slices.Equal(got, want) {
								t.Errorf("Q%d/%s workers=%d: %d answers, want %d", qi+1, s, workers, len(got), len(want))
								return
							}
						}
					}()
				}
				wg.Wait()
			}
		}
	}
}

// TestWarmRunAllocBound guards the steady state of a warm sequential
// run on one university: batch storage comes from the pool instead of
// being grown again for every arm. Measured on go1.24/amd64, a warm
// run allocates 0.72 MB for Q3/ucq and 2.63 MB for Q9/ucq, most of it
// the fresh operator tree and EXPLAIN skeleton; growing every arm's
// batches from empty cost 0.88 and 3.28 MB. The bounds sit between.
func TestWarmRunAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := lubmDB()
	for _, tc := range []struct {
		qi    int
		bound uint64
	}{{2, 800 << 10}, {8, 2950 << 10}} { // Q3, Q9
		qi := tc.qi
		c := compileLUBM(t, db, qi, core.StrategyUCQ)
		for i := 0; i < 3; i++ { // warm the pool
			answers(t, c, 1)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := c.Run(1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("Q%d/ucq: %d bytes per warm run", qi+1, perRun)
		if perRun > tc.bound {
			t.Errorf("Q%d/ucq: %d bytes per warm run, bound %d", qi+1, perRun, tc.bound)
		}
	}
}

// TestTableProbesAllocFree: the simple layout's probes are array loads
// and a sub-slice (a binary search for pairs); none allocates.
func TestTableProbesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := lubmDB()
	rt, c := db.Role("takesCourse"), db.Concept("UndergraduateStudent")
	s, o := rt.Pairs[0][0], rt.Pairs[0][1]
	hits := 0
	for name, probe := range map[string]func(){
		"Objects":  func() { hits += len(rt.Objects(s)) },
		"Subjects": func() { hits += len(rt.Subjects(o)) },
		"Contains": func() {
			if c.Contains(c.IDs[0]) {
				hits++
			}
		},
		"ContainsPair": func() {
			if rt.ContainsPair(s, o) {
				hits++
			}
		},
	} {
		hits = 0
		if n := testing.AllocsPerRun(1000, probe); n != 0 {
			t.Errorf("%s: %.1f allocations per probe", name, n)
		}
		if hits == 0 {
			t.Errorf("%s: probe found nothing", name)
		}
	}
}

package engine_test

// Pooled batch storage and run states under real plans: one Compiled
// run from many goroutines must answer exactly as it does alone (a
// batch or tree shared by two live owners shows up as a wrong answer),
// and a warm run must reuse its storage instead of growing it again.

import (
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
)

// planLUBM plans LUBM query qi (0-based) under strategy s on db.
func planLUBM(t *testing.T, db *engine.DB, qi int, s core.Strategy) *plan.Node {
	t.Helper()
	res, err := core.New(lubm.TBox(), db, engine.ProfilePostgres()).Answer(lubm.Queries()[qi], s)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

// compileLUBM plans LUBM query qi (0-based) under strategy s and
// compiles the plan on the native backend.
func compileLUBM(t *testing.T, db *engine.DB, qi int, s core.Strategy) *engine.Compiled {
	t.Helper()
	return compileNode(t, db, planLUBM(t, db, qi, s))
}

// compileNode compiles n on the native backend over db.
func compileNode(t *testing.T, db *engine.DB, n *plan.Node) *engine.Compiled {
	t.Helper()
	c, err := engine.NewBackend(db, engine.ProfilePostgres()).CompilePlan(n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func lubmDB() *engine.DB { return lubmDBLayout(engine.LayoutSimple) }

func lubmDBLayout(l engine.Layout) *engine.DB {
	db := engine.NewDB(l)
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

// TestCompiledConcurrentRuns: 8 goroutines × 50 runs of one Compiled,
// at one worker and at four, each taking and returning pooled run
// states, all answer what a lone run answers with the same root actual
// rows, and leave no goroutine behind.
func TestCompiledConcurrentRuns(t *testing.T) {
	db := lubmDB()
	baseline := runtime.NumGoroutine()
	for _, qi := range []int{2, 8} { // Q3, Q9
		for _, s := range []core.Strategy{core.StrategyUCQ, core.StrategyGDLExt} {
			c := compileLUBM(t, db, qi, s)
			for _, workers := range []int{1, 4} {
				want, err := c.Run(workers)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 50; i++ {
							got, err := c.Run(workers)
							if err != nil {
								t.Error(err)
								return
							}
							if !reflect.DeepEqual(got.Tuples, want.Tuples) || got.Explain.Root.ActualRows != want.Explain.Root.ActualRows {
								t.Errorf("Q%d/%s workers=%d: %d answers (root actual %d), want %d (%d)", qi+1, s, workers,
									len(got.Tuples), got.Explain.Root.ActualRows, len(want.Tuples), want.Explain.Root.ActualRows)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
		}
	}
	// A parallel union's closer goroutine may still be on its way out.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCompileAllocBound guards CompilePlan itself, which plans every
// arm straight from its access leaves and copies none of them into a
// query value. Measured on go1.24/amd64 it allocates about 43 kB for
// Q3/ucq and 166 kB for Q9/ucq; a per-arm copy of the body would
// roughly double that.
func TestCompileAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := lubmDB()
	for _, tc := range []struct {
		qi    int
		bound uint64
	}{{2, 120 << 10}, {8, 420 << 10}} { // Q3, Q9
		qi := tc.qi
		n := planLUBM(t, db, qi, core.StrategyUCQ)
		compileNode(t, db, n) // settle the database's statistics
		const runs = 20
		perCompile := allocDuring(t, func() {
			for i := 0; i < runs; i++ {
				compileNode(t, db, n)
			}
		}) / runs
		t.Logf("Q%d/ucq: %d bytes per compile", qi+1, perCompile)
		if perCompile > tc.bound {
			t.Errorf("Q%d/ucq: %d bytes per compile, bound %d", qi+1, perCompile, tc.bound)
		}
	}
}

// TestWarmRunAllocBound guards the first run of a freshly compiled
// plan (a run-state pool miss: every cold query's case) over a warm
// batch pool, so building the operator tree and EXPLAIN skeleton never
// gets dearer. Measured on go1.24/amd64 it allocates about 622 kB for
// Q3/ucq and 2,132 kB for Q9/ucq; the bounds leave about 5 % headroom,
// so an operator or argument struct that grows by a field fails them
// (a 48-byte termRef cost 7 %). Growing every arm's batches from empty
// cost 0.88 and 3.28 MB.
func TestWarmRunAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := lubmDB()
	for _, tc := range []struct {
		qi    int
		bound uint64
	}{{2, 640 << 10}, {8, 2194 << 10}} { // Q3, Q9
		qi := tc.qi
		n := planLUBM(t, db, qi, core.StrategyUCQ)
		for i := 0; i < 3; i++ { // warm the batch pool
			answers(t, compileNode(t, db, n), 1)
		}
		const runs = 20
		var total uint64
		for i := 0; i < runs; i++ {
			fresh := compileNode(t, db, n)
			total += allocDuring(t, func() {
				if _, err := fresh.Run(1); err != nil {
					t.Fatal(err)
				}
			})
		}
		perRun := total / runs
		t.Logf("Q%d/ucq: %d bytes per first run", qi+1, perRun)
		if perRun > tc.bound {
			t.Errorf("Q%d/ucq: %d bytes per first run, bound %d", qi+1, perRun, tc.bound)
		}
	}
}

// TestRerunAllocBound guards a run of a plan that has run before: it
// re-opens a pooled operator tree and copies the EXPLAIN template, so
// it allocates little beyond its answers and EXPLAIN. Both plans have
// arms with existence probes. Measured on
// go1.24/amd64 it allocates about 0.11 MB for Q3/ucq and 0.35 MB for
// Q9/ucq. The bounds leave room for a few rebuilds in the loop: a
// sync.Pool may come up empty after a garbage collection or when the
// goroutine has moved to another processor.
func TestRerunAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := lubmDB()
	for _, tc := range []struct {
		qi    int
		bound uint64
	}{{2, 200 << 10}, {8, 500 << 10}} { // Q3, Q9
		qi := tc.qi
		c := compileLUBM(t, db, qi, core.StrategyUCQ)
		if tree, _ := c.Tree(1); !engine.HasExistenceProbe(tree) {
			t.Fatalf("Q%d/ucq: no existence probe in its arms", qi+1)
		}
		for i := 0; i < 3; i++ { // fill both pools
			answers(t, c, 1)
		}
		const runs = 50
		perRun := allocDuring(t, func() {
			for i := 0; i < runs; i++ {
				if _, err := c.Run(1); err != nil {
					t.Fatal(err)
				}
			}
		}) / runs
		t.Logf("Q%d/ucq: %d bytes per rerun", qi+1, perRun)
		if perRun > tc.bound {
			t.Errorf("Q%d/ucq: %d bytes per rerun, bound %d", qi+1, perRun, tc.bound)
		}
	}
}

// TestRerunAfterWriteAllocBound guards a rerun of Q3/ucq after each
// of a series of writes into a table it reads (authorOf, one new fact
// and a Finalize before every run, outside the measurement): a write
// strands no pooled tree, whose Open reads the tables afresh, so the
// run re-opens it and stays within TestRerunAllocBound's Q3 bound.
// Rebuilding the tree after every write costs about 0.62 MB a run
// (TestWarmRunAllocBound).
func TestRerunAfterWriteAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := lubmDB()
	c := compileLUBM(t, db, 2, core.StrategyUCQ) // Q3
	// Fill both pools.
	for i := 0; i < 3; i++ {
		answers(t, c, 1)
	}
	const runs, bound = 50, 200 << 10
	var total uint64
	for i := 0; i < runs; i++ {
		db.AddRoleFact("authorOf", "Writer"+strconv.Itoa(i), "Paper"+strconv.Itoa(i))
		db.Finalize()
		total += allocDuring(t, func() {
			if _, err := c.Run(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	perRun := total / runs
	t.Logf("Q3/ucq: %d bytes per rerun after a write", perRun)
	if perRun > bound {
		t.Errorf("Q3/ucq: %d bytes per rerun after a write, bound %d", perRun, bound)
	}
}

// TestBoundRerunAllocBound guards a rerun of a parameterized plan with
// fresh arguments every time — an answer-cache hit for another constant
// of a template: the pooled tree is rebound, not rebuilt, so it stays
// within TestRerunAllocBound's Q3 bound plus a small allowance per
// parameter (resolving it, and re-rendering the EXPLAIN details that
// show it). Measured on go1.24/amd64 a T3-shaped template under ucq
// (237 arms) allocates about 0.12 MB per rerun, 0.02 MB more than its
// instance's own plan does.
func TestBoundRerunAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	db := lubmDB()
	q := query.MustParseCQ("T3(y) <- Person('m'), memberOf('m', y)")
	res, err := core.New(lubm.TBox(), db, engine.ProfilePostgres()).Answer(q, core.StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Args) != 1 {
		t.Fatalf("args %q, want one parameter", res.Args)
	}
	c := compileNode(t, db, res.Plan)
	var members [][]string
	for _, p := range db.Role("memberOf").Pairs {
		if len(members) == 64 {
			break
		}
		if m := db.Dict.Decode(p[0]); len(members) == 0 || members[len(members)-1][0] != m {
			members = append(members, []string{m})
		}
	}
	found := 0
	for _, args := range members[:3] { // fill both pools
		rr, err := c.Run(1, args...)
		if err != nil {
			t.Fatal(err)
		}
		found += len(rr.Tuples)
	}
	if found == 0 {
		t.Fatal("no member answers")
	}
	const runs = 50
	perRun := allocDuring(t, func() {
		for i := 0; i < runs; i++ {
			if _, err := c.Run(1, members[i%len(members)]...); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	const bound = 200<<10 + 1*boundPerParam
	t.Logf("T3/ucq: %d bytes per rerun with fresh arguments", perRun)
	if perRun > bound {
		t.Errorf("T3/ucq: %d bytes per rerun, bound %d", perRun, bound)
	}
}

// boundPerParam is TestBoundRerunAllocBound's allowance per parameter.
const boundPerParam = 32 << 10

// allocDuring returns the bytes f allocates.
func allocDuring(t *testing.T, f func()) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTableProbesAllocFree: the simple layout's probes are array loads
// and a sub-slice (a binary search for pairs); none allocates. Nor does
// an existence probe's row check, in either direction, on either
// layout.
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

	// Existence probes, both directions; a row is (x), the variable
	// bound before the probe. The RDF database comes from the same
	// generator and seed, so it has the same ids.
	for _, ldb := range []*engine.DB{db, lubmDBLayout(engine.LayoutRDF)} {
		for _, pc := range []struct {
			q string
			x int64
		}{
			{"q(x) <- Student(x), takesCourse(x, c)", s},
			{"q(x) <- Course(x), takesCourse(y, x)", o},
		} {
			keep, ok := engine.ExistenceCheck(query.MustParseCQ(pc.q), ldb)
			if !ok {
				t.Fatalf("%v: %s: takesCourse is not an existence probe", ldb.Layout, pc.q)
			}
			row := []int64{pc.x}
			hits = 0
			if n := testing.AllocsPerRun(1000, func() {
				if keep(row) {
					hits++
				}
			}); n != 0 {
				t.Errorf("%v: %s: %.1f allocations per row", ldb.Layout, pc.q, n)
			}
			if hits == 0 {
				t.Errorf("%v: %s: probe found nothing", ldb.Layout, pc.q)
			}
		}
	}
}

package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/search"
)

// TestCacheHitSkipsPlanning: the second identical request is served from
// the cache (same answers, CacheHit set, no fresh search reported).
func TestCacheHitSkipsPlanning(t *testing.T) {
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	for _, s := range Strategies() {
		a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
		first, err := a.Answer(q, s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if first.CacheHit {
			t.Fatalf("%s: first request claims a cache hit", s)
		}
		second, err := a.Answer(q, s)
		if err != nil {
			t.Fatalf("%s repeat: %v", s, err)
		}
		if !second.CacheHit {
			t.Errorf("%s: repeat request missed the cache", s)
		}
		if second.Search != nil || second.SearchTime != 0 {
			t.Errorf("%s: cache hit still reports a search", s)
		}
		if len(second.Tuples) != len(first.Tuples) || second.Tuples[0][0] != first.Tuples[0][0] {
			t.Errorf("%s: hit answers %v != miss answers %v", s, second.Tuples, first.Tuples)
		}
		if second.SQLSize != first.SQLSize || second.Plan != first.Plan || second.NumDisjuncts != first.NumDisjuncts {
			t.Errorf("%s: cached artifacts differ", s)
		}
		hits, misses := a.Cache.Stats()
		if hits != 1 || misses != 1 {
			t.Errorf("%s: stats hits=%d misses=%d, want 1/1", s, hits, misses)
		}
	}
}

// TestCacheCanonicalization: isomorphic queries (renamed variables)
// share one cache entry; different strategies do not.
func TestCacheCanonicalization(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	q1 := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	q2 := query.MustParseCQ("q(u) <- PhDStudent(u), worksWith(v, u)")
	if _, err := a.Answer(q1, StrategyUCQ); err != nil {
		t.Fatal(err)
	}
	res, err := a.Answer(q2, StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("isomorphic query missed the cache")
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0] != "Damian" {
		t.Errorf("isomorphic hit answered %v", res.Tuples)
	}
	other, err := a.Answer(q1, StrategyCroot)
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Error("different strategy hit the UCQ entry")
	}
	if a.Cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", a.Cache.Len())
	}
}

// TestCacheDataInvalidation: a write is seen by the next request
// whether or not it re-plans. A write that moves a statistic to another
// power-of-two bucket moves the statistics epoch and re-plans; one that
// leaves every bucket alone keeps the cached plan, which runs on the
// new data.
func TestCacheDataInvalidation(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	first, err := a.Answer(q, StrategyGDLExt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Tuples) != 1 {
		t.Fatalf("baseline answers = %v", first.Tuples)
	}

	// 3 facts become 5 and supervisedBy's 2 facts 4: buckets move.
	v, epoch := a.DB.Version(), a.DB.Stats().Epoch
	a.DB.AddRoleFact("supervisedBy", "Eva", "Ioana")
	a.DB.AddRoleFact("supervisedBy", "Eva", "Francois")
	a.DB.Finalize()
	if a.DB.Version() == v {
		t.Fatal("mutation did not bump the data version")
	}
	if a.DB.Stats().Epoch == epoch {
		t.Fatal("a write across buckets kept the statistics epoch")
	}
	second, err := a.Answer(q, StrategyGDLExt)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Error("a write across buckets served the plan of the old epoch")
	}
	if len(second.Tuples) != 2 { // Damian and Eva
		t.Errorf("post-mutation answers = %v", second.Tuples)
	}

	// 5 facts become 6, 4 entities 5, supervisedBy's 4 facts 5, its 2
	// subjects 3 and its 2 objects stay: every bucket holds.
	epoch = a.DB.Stats().Epoch
	a.DB.AddRoleFact("supervisedBy", "Gina", "Ioana")
	a.DB.Finalize()
	if a.DB.Stats().Epoch != epoch {
		t.Fatal("a write inside every bucket moved the statistics epoch")
	}
	third, err := a.Answer(q, StrategyGDLExt)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Error("a write inside every bucket re-planned")
	}
	if got, want := sorted(third.Tuples), []string{"Damian", "Eva", "Gina"}; !slices.Equal(got, want) {
		t.Errorf("answers after the second write = %v, want %v", got, want)
	}
}

// TestSearchCostsTheWrittenData: a gdl-ext search after a write that
// moves the statistics epoch costs its covers on the statistics of
// that epoch, so its cost is ε of its plan on the written data.
func TestSearchCostsTheWrittenData(t *testing.T) {
	a := lubmAnswerer(t)
	qs := lubm.Queries()
	queries := []query.CQ{qs[2], qs[8]} // Q3 and Q9 read authorOf
	for _, q := range queries {
		if _, err := a.Answer(q, StrategyGDLExt); err != nil {
			t.Fatal(err)
		}
	}
	epoch := a.DB.Stats().Epoch
	for i := 0; i < 64; i++ {
		a.DB.AddRoleFact("authorOf", fmt.Sprintf("Writer%d", i), fmt.Sprintf("Paper%d", i))
	}
	a.DB.Finalize()
	if a.DB.Stats().Epoch == epoch {
		t.Fatal("doubling authorOf kept the statistics epoch")
	}
	for _, q := range queries {
		res, err := a.Answer(q, StrategyGDLExt)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || res.Search == nil {
			t.Fatalf("%s: no fresh search after the epoch moved", q.Name)
		}
		if got := cost.NewModel(a.DB).Estimate(res.Plan).Cost; res.Search.Cost != got {
			t.Errorf("%s: search cost %.4f != ε(plan) on the written data %.4f", q.Name, res.Search.Cost, got)
		}
	}
}

// TestCacheTBoxInvalidation: InvalidateTBox bumps the TBox version so
// cached plans from the old ontology become unreachable.
func TestCacheTBoxInvalidation(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	q := query.MustParseCQ("q(x) <- Researcher(x)")
	if _, err := a.Answer(q, StrategyUCQ); err != nil {
		t.Fatal(err)
	}
	a.InvalidateTBox()
	res, err := a.Answer(q, StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("stale entry served after TBox invalidation")
	}
}

// TestTBoxInvalidationPurgesShardCache: an ontology swap must also
// flush the shard backend's own plan/result caches — their keys carry
// the data version only, so InvalidateTBox purges them explicitly.
func TestTBoxInvalidationPurgesShardCache(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	sb, err := NewBackendByName("shard", a.DB, a.Profile, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.Backend = sb
	q := query.MustParseCQ("q(x) <- Researcher(x)")
	for i := 0; i < 2; i++ {
		if _, err := a.Answer(q, StrategyUCQ); err != nil {
			t.Fatal(err)
		}
	}
	type cacher interface {
		CacheStats() (hits, misses uint64)
		CacheLen() int
		PurgeCache()
	}
	c, ok := sb.(cacher)
	if !ok {
		t.Fatal("shard backend lost its cache surface")
	}
	if h, m := c.CacheStats(); h+m == 0 {
		t.Fatal("shard caches never consulted")
	}
	if c.CacheLen() == 0 {
		t.Fatal("shard caches empty before invalidation")
	}
	a.InvalidateTBox()
	// Counters are cumulative and survive the purge; the entries do not.
	if c.CacheLen() != 0 {
		t.Fatalf("shard caches hold %d entries after TBox invalidation", c.CacheLen())
	}
	// The next answer still works and re-fills the caches.
	res, err := a.Answer(q, StrategyUCQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Fatalf("post-invalidation answers = %v", res.Tuples)
	}
}

// TestCacheDisabled: a nil cache re-runs the full pipeline every time.
func TestCacheDisabled(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	a.Cache = nil
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	for i := 0; i < 2; i++ {
		res, err := a.Answer(q, StrategyGDLExt)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("nil cache reported a hit")
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("answers = %v", res.Tuples)
		}
	}
}

// TestCacheLRUEviction: the LRU evicts past capacity and keeps the hot
// entry.
func TestCacheLRUEviction(t *testing.T) {
	c := NewAnswerCache(2)
	k := func(s string) cacheKey { return cacheKey{canon: s} }
	c.put(k("a"), &cachedPlan{})
	c.put(k("b"), &cachedPlan{})
	if _, ok := c.get(k("a")); !ok { // promote a
		t.Fatal("a missing")
	}
	c.put(k("c"), &cachedPlan{}) // evicts b
	if _, ok := c.get(k("b")); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.get(k("a")); !ok {
		t.Error("hot entry a evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("purged len = %d", c.Len())
	}
}

// TestSearchMemoShared: repeated searches reuse a shared cover-estimate
// memo (plan cache disabled so the search actually re-runs; the memo is
// wired explicitly, as disabling the cache also disables the automatic
// one).
func TestSearchMemoShared(t *testing.T) {
	a := answerer(t, engine.LayoutSimple, engine.ProfilePostgres())
	a.Cache = nil
	a.SearchOpts.Memo = search.NewMemo()
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	first, err := a.Answer(q, StrategyGDLExt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Search == nil || first.Search.ExploredLq+first.Search.ExploredGq == 0 {
		t.Fatal("first search explored nothing")
	}
	second, err := a.Answer(q, StrategyGDLExt)
	if err != nil {
		t.Fatal(err)
	}
	if n := second.Search.ExploredLq + second.Search.ExploredGq; n != 0 {
		t.Errorf("repeat search re-estimated %d covers despite the memo", n)
	}
	if len(second.Tuples) != len(first.Tuples) {
		t.Errorf("answers drifted: %v vs %v", second.Tuples, first.Tuples)
	}
}

// searchReport is what a search reports about itself: the Table 6
// counts, the fragment table's counters, and the cover it chose.
type searchReport struct {
	lq, gq, built, reused int
	cover                 string
	cost                  float64
}

func reportOf(t *testing.T, a *Answerer, q query.CQ, s Strategy) searchReport {
	t.Helper()
	res, err := a.Answer(q, s)
	if err != nil {
		t.Fatalf("%s/%s: %v", q.Name, s, err)
	}
	if res.CacheHit || res.Search == nil {
		t.Fatalf("%s/%s: no fresh search ran", q.Name, s)
	}
	r := res.Search
	return searchReport{r.ExploredLq, r.ExploredGq, r.FragmentsEstimated, r.FragmentsReused, r.Cover.Key(), r.Cost}
}

// TestSearchReportIsHistoryFree: a search's report depends on its
// inputs only, not on what the Answerer searched before. Searching
// again after the answer cache is purged reports what the first search
// did, and edl after gdl-ext reports what edl reports on a fresh
// Answerer.
func TestSearchReportIsHistoryFree(t *testing.T) {
	tb, db, prof := lubm.TBox(), goldenDB(engine.LayoutSimple), engine.ProfilePostgres()
	picked := map[string]bool{"Q1": true, "Q2": true, "Q3": true, "A3": true, "A4": true}
	for _, q := range goldenQueries() {
		if !picked[q.Name] {
			continue
		}
		a := New(tb, db, prof)
		first := reportOf(t, a, q, StrategyGDLExt)
		a.Cache.Purge()
		if again := reportOf(t, a, q, StrategyGDLExt); again != first {
			t.Errorf("%s: gdl-ext after a purge reports %+v, the first search %+v", q.Name, again, first)
		}
		if len(q.Atoms) > 4 {
			continue // edl is for small queries
		}
		after := reportOf(t, a, q, StrategyEDL)
		if fresh := reportOf(t, New(tb, db, prof), q, StrategyEDL); after != fresh {
			t.Errorf("%s: edl after gdl-ext reports %+v, on a fresh Answerer %+v", q.Name, after, fresh)
		}
	}
}

// Len returns the number of cached plans.
func (c *AnswerCache) Len() int { return c.lru.Len() }

// Purge drops every cached entry (a TBox swap or an epoch move already
// makes stale entries unreachable; Purge reclaims their memory eagerly).
func (c *AnswerCache) Purge() { c.lru.Purge() }

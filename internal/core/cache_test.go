package core

import (
	"testing"

	"repro/internal/engine"
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

// TestCacheDataInvalidation: an ABox mutation bumps the data version;
// the next request re-plans and sees the new facts.
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
	v := a.DB.Version()
	a.DB.AddRoleFact("supervisedBy", "Eva", "Ioana")
	a.DB.Finalize()
	if a.DB.Version() == v {
		t.Fatal("mutation did not bump the data version")
	}
	second, err := a.Answer(q, StrategyGDLExt)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Error("stale entry served after data mutation")
	}
	if len(second.Tuples) != 2 { // Damian and Eva
		t.Errorf("post-mutation answers = %v", second.Tuples)
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

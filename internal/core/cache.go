package core

// The query-answering cache: cmd/obdaserver traffic is dominated by a
// small set of hot query templates, yet every request used to re-run
// the cover search (GDL/EDL), PerfectRef reformulation, planning,
// compiling, and statement sizing before a single tuple was produced.
// AnswerCache memoizes that whole front half of Answer, keyed on the
// canonical form of the query's template (query.Parameterize: its
// constants become parameters, so queries differing only in constants
// share an entry, as do isomorphic ones), the strategy, the backend,
// the TBox version and the statistics epoch. A TBox swap bumps its
// version; a write moves the epoch only when it moves a statistic the
// estimators read to another power-of-two bucket
// (engine.Statistics.Epoch). Stale entries become unreachable and age
// out of the LRU. Execution itself always runs, against the live data
// and binding the request's constants: the cached artifact is the
// plan, not the answer tuples, so a write is reflected by the next read
// whether or not it re-plans — a plan chosen on older statistics
// answers the same (Theorems 1 and 3) and can only cost time.

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/plan"
	"repro/internal/sqlgen"
)

// DefaultAnswerCacheSize is the LRU capacity New wires into an
// Answerer.
const DefaultAnswerCacheSize = 256

// cacheKey identifies one cached reformulation+plan: of a query
// template, never of one instance's constants. It carries the
// statistics epoch, not the data version: the plan is a function of
// what its estimates read, while the answer, which does depend on the
// data, is computed afresh by every run.
type cacheKey struct {
	canon    string // query.CanonicalKey of the template
	strategy Strategy
	tboxVer  uint64
	epoch    uint64 // engine.Statistics.Epoch the plan was costed in
	backend  string // executables are backend-specific
}

// cachedPlan is the reusable front half of one Answer call, for every
// instance of a template: the chosen cover, the logical plan its
// reformulation lowered into, the byte size of the SQL that plan
// renders to as a function of the constants (not the text, which
// nothing off the sql backend reads), and the backend executable
// compiled from it. The IR and the executable are
// immutable/concurrency-safe; physical state is rebuilt, or re-opened
// and rebound to the run's constants, inside every run.
type cachedPlan struct {
	cover        cover.Cover // over the template
	numFragments int
	numDisjuncts int
	sqlSize      sqlgen.StatementSize

	searchTime time.Duration // the original search cost, reported once

	ir   *plan.Node      // the logical plan every backend compiles
	exec plan.Executable // compiled for the backend in the cache key
}

// AnswerCache is a concurrency-safe LRU of cachedPlans, one per query
// template, strategy, backend, TBox version and statistics epoch,
// built on the shared internal/cache LRU (the same implementation
// backing the shard backend's per-shard plan/result caches).
type AnswerCache struct {
	lru *cache.LRU[cacheKey, *cachedPlan]
}

// NewAnswerCache builds an empty cache holding up to capacity entries
// (capacity <= 0 falls back to DefaultAnswerCacheSize).
func NewAnswerCache(capacity int) *AnswerCache {
	if capacity <= 0 {
		capacity = DefaultAnswerCacheSize
	}
	return &AnswerCache{lru: cache.New[cacheKey, *cachedPlan](capacity)}
}

// get returns the cached plan for key, promoting it to most recently
// used.
func (c *AnswerCache) get(key cacheKey) (*cachedPlan, bool) {
	return c.lru.Get(key)
}

// put stores a plan under key, evicting the least recently used entry
// past capacity.
func (c *AnswerCache) put(key cacheKey, plan *cachedPlan) {
	c.lru.Put(key, plan)
}

// Stats returns the cumulative hit and miss counts.
func (c *AnswerCache) Stats() (hits, misses uint64) { return c.lru.Stats() }

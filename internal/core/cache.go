package core

// The query-answering cache: cmd/obdaserver traffic is dominated by a
// small set of hot queries, yet every request used to re-run the cover
// search (GDL/EDL), PerfectRef reformulation, planning, and statement
// sizing before a single tuple was produced. AnswerCache memoizes
// that whole front half of Answer, keyed on the query's canonical form
// (isomorphic queries share an entry), the strategy, and the TBox/data
// versions — a TBox or ABox mutation bumps a version, so stale entries
// become unreachable and age out of the LRU. Execution itself always
// runs: the cached artifact is the plan, not the answer tuples, so
// updates to the data are reflected immediately after the version
// bump while unchanged deployments skip straight to the operator
// pipeline.

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cover"
	"repro/internal/plan"
)

// DefaultAnswerCacheSize is the LRU capacity New wires into an
// Answerer.
const DefaultAnswerCacheSize = 256

// cacheKey identifies one cached reformulation+plan.
type cacheKey struct {
	canon    string
	strategy Strategy
	tboxVer  uint64
	dataVer  uint64
	backend  string // executables are backend-specific
}

// cachedPlan is the reusable front half of one Answer call: the chosen
// cover, the logical plan its reformulation lowered into, the byte size
// of the SQL that plan renders to (not the text, which nothing off the
// sql backend reads), and the backend executable compiled from it.
// The IR and the executable are immutable/concurrency-safe; physical
// state is rebuilt inside every Run.
type cachedPlan struct {
	cover        cover.Cover
	numFragments int
	numDisjuncts int
	sqlSize      int

	searchTime time.Duration // the original search cost, reported once

	ir   *plan.Node      // the logical plan every backend compiles
	exec plan.Executable // compiled for the backend in the cache key
}

// AnswerCache is a concurrency-safe LRU of cachedPlans, built on the
// shared internal/cache LRU (the same implementation backing the shard
// backend's per-shard plan/result caches).
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

// Len returns the number of cached plans.
func (c *AnswerCache) Len() int { return c.lru.Len() }

// Stats returns the cumulative hit and miss counts.
func (c *AnswerCache) Stats() (hits, misses uint64) { return c.lru.Stats() }

// Purge drops every cached entry (version bumps already make stale
// entries unreachable; Purge reclaims their memory eagerly).
func (c *AnswerCache) Purge() { c.lru.Purge() }

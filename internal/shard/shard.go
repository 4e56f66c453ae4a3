// Package shard is the hash-partitioned execution backend: the third
// plan.Backend, scaling the native streaming engine out across N
// first-column shards of every concept and role table. A plan compiles
// once per shard (reusing engine.Backend against a per-shard view),
// the shard trees run concurrently under the existing parallel-union
// operator, and a final distinct merges the answer streams. Joins
// aligned on the partition column run entirely shard-local; when the
// join key is bound but not partition-aligned, a shuffle exchange
// repartitions each fragment's stream to the shard owning the key
// instead of broadcasting (align.go holds both analyses); relations
// neither analysis can place are broadcast — every shard reads their
// full base table. Estimate prices sharded plans (including the
// exchange's transfer term) through the same IR the cover search
// scores native and SQL plans with.
//
// Two LRU caches make repeated queries cheap: a plan cache keyed by
// (canonical plan, data version) skips per-shard recompilation, and a
// result cache keyed by (canonical plan, arguments, shard, data
// version) replays a shard's deduplicated answer stream without
// re-executing it. A parameterized plan compiles once for all its
// instances, while each instance caches its own answers. Both
// age out on data mutations via DB.Version() in the key;
// core.Answerer.InvalidateTBox calls PurgeCache for ontology swaps.
package shard

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// Cache capacities. Plans are small (compiled artifacts); results hold
// materialized per-shard relations, so the result cache is the one to
// tune on memory pressure.
const (
	DefaultPlanCacheSize   = 64
	DefaultResultCacheSize = 512
)

// planKey identifies one compiled plan per data version.
type planKey struct {
	plan string
	ver  uint64
}

// resultKey identifies one shard's cached answer stream: the canonical
// plan (the executed IR, exchange wrappers included), the arguments
// bound to its parameters (argsKey), the backend's shard, and the data
// version — the per-shard analogue of core.AnswerCache's key plus the
// constants it leaves out.
type resultKey struct {
	plan  string
	args  string
	shard int
	ver   uint64
}

// argsKey encodes a run's arguments unambiguously: each one
// length-prefixed.
func argsKey(args []string) string {
	if len(args) == 0 {
		return ""
	}
	var b strings.Builder
	for _, a := range args {
		b.WriteString(strconv.Itoa(len(a)))
		b.WriteByte(':')
		b.WriteString(a)
	}
	return b.String()
}

// Backend executes logical plans against a hash-partitioned database.
// It is safe for concurrent use.
type Backend struct {
	part  *engine.Partitioning
	prof  *engine.Profile
	model *cost.Model

	mu    sync.Mutex
	views map[string][]*engine.DB // relSetKey(partitioned) → one view per shard

	plans   *cache.LRU[planKey, plan.Executable]
	results *cache.LRU[resultKey, *engine.Relation]
}

// New partitions db into n first-column hash shards and returns the
// backend, which plans and estimates under prof.
func New(db *engine.DB, prof *engine.Profile, n int) (*Backend, error) {
	part, err := engine.Partition(db, n)
	if err != nil {
		return nil, err
	}
	return &Backend{
		part:    part,
		prof:    prof,
		model:   cost.NewModel(db),
		views:   make(map[string][]*engine.DB),
		plans:   cache.New[planKey, plan.Executable](DefaultPlanCacheSize),
		results: cache.New[resultKey, *engine.Relation](DefaultResultCacheSize),
	}, nil
}

// Name identifies the backend (it keys answer-cache entries).
func (b *Backend) Name() string { return "shard" }

// NumShards returns the shard count.
func (b *Backend) NumShards() int { return b.part.NumShards() }

// PurgeCache drops the compiled-plan and per-shard result caches.
// core.Answerer calls it on TBox invalidation; data mutations need no
// purge — every key carries DB.Version().
func (b *Backend) PurgeCache() {
	b.plans.Purge()
	b.results.Purge()
}

// CacheStats sums cumulative hit/miss counts over the plan and result
// caches.
func (b *Backend) CacheStats() (hits, misses uint64) {
	h1, m1 := b.plans.Stats()
	h2, m2 := b.results.Stats()
	return h1 + h2, m1 + m2
}

// CacheLen counts the live entries across the plan and result caches.
func (b *Backend) CacheLen() int { return b.plans.Len() + b.results.Len() }

// viewsFor returns the per-shard databases for one alignment decision.
// A plan with no alignment gets a single full view — evaluating an
// unaligned plan on every shard would do n times the work only to
// deduplicate it away.
func (b *Backend) viewsFor(an analysis) []*engine.DB {
	if !an.aligned() {
		return []*engine.DB{b.part.Base}
	}
	return b.viewsByRels(an.partitioned)
}

// viewsByRels returns the per-shard views restricting the given
// relations to their shard slices (cached by the relation set).
func (b *Backend) viewsByRels(rels map[string]bool) []*engine.DB {
	key := relSetKey(rels)
	b.mu.Lock()
	defer b.mu.Unlock()
	if vs, ok := b.views[key]; ok {
		return vs
	}
	vs := make([]*engine.DB, b.part.NumShards())
	for i := range vs {
		vs[i] = b.part.View(i, rels)
	}
	b.views[key] = vs
	return vs
}

// analyze validates the plan and picks the co-partitioned alignment.
// Validation runs once here for both Compile and Estimate; the
// per-shard engine compiles re-check, but a malformed plan never
// reaches partitioned views.
func (b *Backend) analyze(n *plan.Node) (analysis, error) {
	if err := plan.Validate(n); err != nil {
		return analysis{}, err
	}
	return analyze(n, b.part.Base.Stats())
}

// pickExchange decides whether the plan should repartition instead of
// broadcasting: only when the co-partitioned analysis is not already a
// perfect fit (fully aligned, nothing broadcast) and the exchange
// analysis finds a usable key.
func (b *Backend) pickExchange(an analysis, n *plan.Node) *exchange {
	if an.aligned() && len(an.broadcast) == 0 {
		return nil
	}
	return analyzeExchange(n, b.part.Base.Stats(), b.NumShards())
}

// Compile lowers the plan once per shard view, through the plan cache:
// an unchanged database serves the previously compiled executable.
func (b *Backend) Compile(n *plan.Node) (plan.Executable, error) {
	key := planKey{plan: n.String(), ver: b.part.Base.Version()}
	if e, ok := b.plans.Get(key); ok {
		return e, nil
	}
	e, err := b.compile(n)
	if err != nil {
		return nil, err
	}
	b.plans.Put(key, e)
	return e, nil
}

func (b *Backend) compile(n *plan.Node) (plan.Executable, error) {
	an, err := b.analyze(n)
	if err != nil {
		return nil, err
	}
	if ex := b.pickExchange(an, n); ex != nil {
		if xe, err := b.compileExchange(n, ex); err == nil {
			return xe, nil
		}
		// A shape the exchange compiler cannot take apart falls back to
		// the co-partitioned/broadcast path below rather than failing.
	}
	views := b.viewsFor(an)
	parts := make([]*engine.Compiled, len(views))
	var est plan.Estimate
	for i, v := range views {
		c, err := engine.NewBackend(v, b.prof).CompilePlan(n)
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, len(views), err)
		}
		parts[i] = c
		e := c.Estimate()
		est.Cost += e.Cost
		est.Card += e.Card
	}
	return &executable{b: b, node: n, an: an, parts: parts, est: est, nparams: plan.NumParams(n)}, nil
}

// compileExchange lowers a cover plan into the shuffle execution: each
// fragment compiled per shard against its own partitioned views (or
// once, for broadcast fragments), a global join order fixed from the
// base-database fragment estimates, and the executed IR — the original
// cover with Exchange wrappers on the repartitioned fragments —
// validated so the exchange invariants are machine-checked.
func (b *Backend) compileExchange(n *plan.Node, ex *exchange) (*exchangeExec, error) {
	frags := plan.CoverFragments(n)
	if frags == nil || len(frags) != len(ex.frags) {
		return nil, fmt.Errorf("shard: exchange needs the cover shape distinct(project(join(...)))")
	}
	proj := n.Inputs[0]
	nsh := b.NumShards()
	base := engine.NewBackend(b.part.Base, b.prof)
	parts := make([][]*engine.Compiled, len(frags))
	fragEst := make([]plan.Estimate, len(frags))
	wrapped := make([]*plan.Node, len(frags))
	exNodes := make([]*plan.Node, len(frags))
	for j, frag := range frags {
		fragEst[j] = base.Estimate(frag)
		fp := ex.frags[j]
		if fp.mode == fragBroadcast {
			c, err := base.CompilePlan(frag)
			if err != nil {
				return nil, fmt.Errorf("shard: broadcast fragment %d: %w", j, err)
			}
			parts[j] = []*engine.Compiled{c}
			wrapped[j] = frag
			continue
		}
		views := b.viewsByRels(fp.partitioned)
		parts[j] = make([]*engine.Compiled, nsh)
		for i, v := range views {
			c, err := engine.NewBackend(v, b.prof).CompilePlan(frag)
			if err != nil {
				return nil, fmt.Errorf("shard %d/%d: fragment %d: %w", i, nsh, j, err)
			}
			parts[j][i] = c
		}
		wrapped[j] = frag
		if fp.mode == fragShuffle {
			exNodes[j] = &plan.Node{Op: plan.OpExchange, Key: ex.key, Inputs: []*plan.Node{frag}}
			wrapped[j] = exNodes[j]
		}
	}
	exIR := &plan.Node{Op: plan.OpDistinct, Name: n.Name, Inputs: []*plan.Node{
		{Op: plan.OpProject, Head: proj.Head, Name: proj.Name, Inputs: []*plan.Node{
			{Op: plan.OpJoin, Inputs: wrapped},
		}},
	}}
	if err := plan.Validate(exIR); err != nil {
		return nil, err
	}
	// One global join order from the base-database estimates. Per-shard
	// orders would differ with the data skew, and exchange build sides
	// are only deadlock-free when every destination loads the same hubs
	// in the same sequence.
	cards := make([]float64, len(frags))
	for j, e := range fragEst {
		cards[j] = e.Card
	}
	probe, builds := engine.CoverJoinOrder(cards)
	est := b.exchangeEstimate(n, ex, fragEst)
	return &exchangeExec{
		b: b, node: n, exIR: exIR, ex: ex,
		head: proj.Head, frags: frags, exNodes: exNodes,
		parts: parts, fragEst: fragEst,
		probe: probe, builds: builds, est: est, nparams: plan.NumParams(n),
	}, nil
}

// exchangeEstimate prices the shuffle execution: the single-node cost
// of the whole plan (partitioned scans split 1/n across n shards, so
// their total is the single-node figure), plus the transfer term for
// every row the shuffled fragments emit, plus the (n-1) extra
// evaluations a broadcast fragment would cost if replayed per shard —
// it is evaluated once here, but its rows enter n build tables.
func (b *Backend) exchangeEstimate(n *plan.Node, ex *exchange, fragEst []plan.Estimate) plan.Estimate {
	est := engine.NewBackend(b.part.Base, b.prof).Estimate(n)
	moved := 0.0
	for j, fp := range ex.frags {
		switch fp.mode {
		case fragShuffle:
			moved += fragEst[j].Card
		case fragBroadcast:
			est.Cost += fragEst[j].Cost * float64(b.NumShards()-1)
		}
	}
	est.Cost += b.model.ExchangeCost(moved)
	return est
}

// Estimate scores a plan without compiling it. The exchange path uses
// exchangeEstimate; the co-partitioned path sums the per-shard engine
// estimates (broadcast relations counted once per shard, which is
// exactly the work done; Card double-counts rows produced by more than
// one shard before the merge distinct — an upper bound, like every
// union-arm estimate in the engine). Malformed plans cost +Inf,
// delegated through the base engine backend.
func (b *Backend) Estimate(n *plan.Node) plan.Estimate {
	an, err := b.analyze(n)
	if err != nil {
		return engine.NewBackend(b.part.Base, b.prof).Estimate(n)
	}
	if ex := b.pickExchange(an, n); ex != nil {
		if frags := plan.CoverFragments(n); frags != nil && len(frags) == len(ex.frags) {
			base := engine.NewBackend(b.part.Base, b.prof)
			fragEst := make([]plan.Estimate, len(frags))
			for j, frag := range frags {
				fragEst[j] = base.Estimate(frag)
			}
			return b.exchangeEstimate(n, ex, fragEst)
		}
	}
	var est plan.Estimate
	for _, v := range b.viewsFor(an) {
		e := engine.NewBackend(v, b.prof).Estimate(n)
		est.Cost += e.Cost
		est.Card += e.Card
	}
	return est
}

// perShardWorkers splits one worker budget across n shard pipelines
// without starving any of them: integer division floored at 1 (seven
// shards on a two-core budget must not hand a shard zero workers —
// engine.clampWorkers rejects 0, but the split must never produce it).
func perShardWorkers(workers, n int) int {
	per := workers / n
	if per < 1 {
		per = 1
	}
	return per
}

// executable is a compiled sharded plan on the co-partitioned path:
// one engine compilation per shard view plus the merge recipe.
// Physical operator state is built per Run, so concurrent runs are
// independent.
type executable struct {
	b       *Backend
	node    *plan.Node
	an      analysis
	parts   []*engine.Compiled
	est     plan.Estimate
	nparams int
}

// Estimate returns the summed per-shard estimate frozen at compile
// time.
func (e *executable) Estimate() plan.Estimate { return e.est }

// Run builds one operator tree per shard (or replays a shard's cached
// relation), unions them under the parallel union, deduplicates the
// merged stream, and drains. The worker budget is split across shards
// — each shard tree plans with perShardWorkers(workers, n) — while the
// merging union spends the full budget pulling shard streams
// concurrently; both go through clampWorkers inside the engine, so the
// pool never oversubscribes GOMAXPROCS. Each shard that runs live to
// completion is captured into the result cache; on this path shards
// are independent, so partial hits replay what they can. args bind the
// plan's parameters in every shard tree.
func (e *executable) Run(workers int, args ...string) (*plan.RunResult, error) {
	if err := plan.CheckArgs(e.nparams, args); err != nil {
		return nil, err
	}
	n := len(e.parts)
	perShard := perShardWorkers(workers, n)
	ver := e.b.part.Base.Version()
	ckey, akey := e.node.String(), argsKey(args)
	roots := make([]engine.Operator, n)
	caps := make([]*engine.Capture, n)
	annotate := make([]func(map[*plan.Node]*plan.ExplainNode), n)
	cachedRows := make([]int64, n)
	hits := 0
	for i, c := range e.parts {
		if r, ok := e.b.results.Get(resultKey{plan: ckey, args: akey, shard: i, ver: ver}); ok {
			roots[i] = engine.NewRelationSource(r)
			cachedRows[i] = int64(len(r.Rows))
			hits++
			continue
		}
		t, at := c.Tree(perShard, args...)
		caps[i] = engine.NewCapture(t)
		roots[i] = caps[i]
		annotate[i] = at
	}
	merged := engine.NewUnionParallel(roots[0].Schema(), roots, workers)
	rel := engine.Drain(engine.NewDistinctOperator(merged))
	for i, c := range caps {
		if c == nil {
			continue
		}
		if r, ok := c.Result(); ok {
			e.b.results.Put(resultKey{plan: ckey, args: akey, shard: i, ver: ver}, r)
		}
	}

	shards := make([]*plan.ExplainNode, n)
	for i, c := range e.parts {
		sroot, at := plan.Skeleton(e.node, args)
		est := c.Estimate()
		sn := &plan.ExplainNode{
			Op:       "shard",
			Detail:   fmt.Sprintf("shard %d/%d", i, n),
			EstRows:  est.Card,
			EstCost:  est.Cost,
			Children: []*plan.ExplainNode{sroot},
		}
		if annotate[i] == nil {
			sn.Detail += " (cache hit)"
			sn.ActualRows = cachedRows[i]
		} else {
			annotate[i](at)
			sn.ActualRows = roots[i].Stats().Rows
		}
		shards[i] = sn
	}
	root := &plan.ExplainNode{
		Op: "shard-merge",
		Detail: fmt.Sprintf("%s; shard-cache %d/%d hits",
			e.an.describe(e.b.NumShards()), hits, n),
		EstRows:    e.est.Card,
		EstCost:    e.est.Cost,
		ActualRows: int64(len(rel.Rows)),
		Children:   shards,
	}
	ex := &plan.Explain{Backend: e.b.Name(), EstCost: e.est.Cost, EstCard: e.est.Card, Root: root}
	return &plan.RunResult{Tuples: rel.Decode(e.b.part.Base.Dict), Explain: ex}, nil
}

// exchangeExec is a compiled sharded plan on the shuffle path: every
// fragment compiled per shard against its own partitioned views
// (broadcast fragments once, on the base), one global join order, and
// the exchange-wrapped IR for EXPLAIN and cache identity.
type exchangeExec struct {
	b       *Backend
	node    *plan.Node
	exIR    *plan.Node
	ex      *exchange
	head    []query.Term
	frags   []*plan.Node
	exNodes []*plan.Node // per fragment: its OpExchange wrapper, or nil
	parts   [][]*engine.Compiled
	fragEst []plan.Estimate
	probe   int
	builds  []int
	est     plan.Estimate
	nparams int
}

// Estimate returns the exchange estimate frozen at compile time.
func (e *exchangeExec) Estimate() plan.Estimate { return e.est }

// Run wires the shuffle execution. Per destination shard: a hash join
// over one child per fragment — the shard's own local tree, the
// shard's exchange endpoint (fed by all source shards), or a replay of
// the broadcast fragment's single evaluation — projected onto the
// cover head and deduplicated, then captured for the result cache. The
// merge is the fan-in union (one dedicated consumer per destination —
// a destination without a consumer would stall the bounded exchange
// channels feeding the others) under the global distinct.
//
// A destination's stream depends on every source shard through the
// exchange, so the result cache is all-or-nothing here: only a full
// set of cached destinations short-circuits execution. args bind the
// plan's parameters in every fragment tree and in the cover head.
func (e *exchangeExec) Run(workers int, args ...string) (*plan.RunResult, error) {
	if err := plan.CheckArgs(e.nparams, args); err != nil {
		return nil, err
	}
	nsh := e.b.NumShards()
	perShard := perShardWorkers(workers, nsh)
	base := e.b.part.Base
	ver := base.Version()
	ckey, akey := e.exIR.String(), argsKey(args)

	cached := make([]*engine.Relation, nsh)
	hits := 0
	for i := 0; i < nsh; i++ {
		if r, ok := e.b.results.Get(resultKey{plan: ckey, args: akey, shard: i, ver: ver}); ok {
			cached[i] = r
			hits++
		}
	}
	if hits == nsh {
		return e.replayCached(cached, args)
	}

	nf := len(e.parts)
	srcs := make([][]engine.Operator, nf)
	annots := make([][]func(map[*plan.Node]*plan.ExplainNode), nf)
	bcast := make([]*engine.Relation, nf)
	for j := 0; j < nf; j++ {
		if e.ex.frags[j].mode == fragBroadcast {
			t, at := e.parts[j][0].Tree(workers, args...)
			bcast[j] = engine.Drain(t)
			annots[j] = []func(map[*plan.Node]*plan.ExplainNode){at}
			continue
		}
		srcs[j] = make([]engine.Operator, nsh)
		annots[j] = make([]func(map[*plan.Node]*plan.ExplainNode), nsh)
		for i := 0; i < nsh; i++ {
			srcs[j][i], annots[j][i] = e.parts[j][i].Tree(perShard, args...)
		}
	}
	hubs := make([]*engine.Exchange, nf)
	eps := make([][]engine.Operator, nf)
	for j := 0; j < nf; j++ {
		if e.ex.frags[j].mode != fragShuffle {
			continue
		}
		hub, endpoints, err := engine.NewExchange(srcs[j], e.ex.key, workers)
		if err != nil {
			return nil, err
		}
		hubs[j] = hub
		eps[j] = endpoints
	}
	head := make([]query.Term, len(e.head))
	for k, t := range e.head {
		head[k] = t.Bind(args)
	}
	caps := make([]*engine.Capture, nsh)
	roots := make([]engine.Operator, nsh)
	for i := 0; i < nsh; i++ {
		children := make([]engine.Operator, nf)
		for j := 0; j < nf; j++ {
			switch e.ex.frags[j].mode {
			case fragBroadcast:
				children[j] = engine.NewRelationSource(bcast[j])
			case fragShuffle:
				children[j] = eps[j][i]
			default:
				children[j] = srcs[j][i]
			}
		}
		joined := engine.NewHashJoin(children, e.probe, e.builds, perShard)
		caps[i] = engine.NewCapture(engine.NewDistinctOperator(engine.NewProjectNamed(joined, head, base)))
		roots[i] = caps[i]
	}
	merged := engine.NewUnionFanIn(roots[0].Schema(), roots)
	rel := engine.Drain(engine.NewDistinctOperator(merged))
	for i, c := range caps {
		if r, ok := c.Result(); ok {
			e.b.results.Put(resultKey{plan: ckey, args: akey, shard: i, ver: ver}, r)
		}
	}

	var moved int64
	for _, h := range hubs {
		if h != nil {
			moved += h.RowsMoved()
		}
	}
	shards := make([]*plan.ExplainNode, nsh)
	for i := 0; i < nsh; i++ {
		sroot, at := plan.Skeleton(e.exIR, args)
		for j := 0; j < nf; j++ {
			if e.ex.frags[j].mode == fragBroadcast {
				annots[j][0](at)
			} else {
				annots[j][i](at)
			}
		}
		for j, hub := range hubs {
			if hub == nil {
				continue
			}
			if en := at[e.exNodes[j]]; en != nil {
				en.ActualRows = hub.DeliveredTo(i)
				en.EstRows = e.fragEst[j].Card / float64(nsh)
				en.Detail += fmt.Sprintf(" sent=%d recv=%d", hub.SentFrom(i), hub.DeliveredTo(i))
			}
		}
		shards[i] = &plan.ExplainNode{
			Op:         "shard",
			Detail:     fmt.Sprintf("shard %d/%d", i, nsh),
			EstRows:    e.est.Card / float64(nsh),
			EstCost:    e.est.Cost / float64(nsh),
			ActualRows: roots[i].Stats().Rows,
			Children:   []*plan.ExplainNode{sroot},
		}
	}
	root := &plan.ExplainNode{
		Op: "shard-merge",
		Detail: fmt.Sprintf("%s; moved %d rows; shard-cache %d/%d hits",
			e.ex.describe(nsh), moved, 0, nsh),
		EstRows:    e.est.Card,
		EstCost:    e.est.Cost,
		ActualRows: int64(len(rel.Rows)),
		Children:   shards,
	}
	exp := &plan.Explain{Backend: e.b.Name(), EstCost: e.est.Cost, EstCard: e.est.Card, Root: root}
	return &plan.RunResult{Tuples: rel.Decode(base.Dict), Explain: exp}, nil
}

// replayCached merges a full set of cached destination relations —
// the repeated-query fast path: no compilation, no scans, no shuffle.
func (e *exchangeExec) replayCached(cached []*engine.Relation, args []string) (*plan.RunResult, error) {
	nsh := len(cached)
	roots := make([]engine.Operator, nsh)
	for i, r := range cached {
		roots[i] = engine.NewRelationSource(r)
	}
	merged := engine.NewUnionParallel(roots[0].Schema(), roots, nsh)
	rel := engine.Drain(engine.NewDistinctOperator(merged))
	shards := make([]*plan.ExplainNode, nsh)
	for i, r := range cached {
		sroot, _ := plan.Skeleton(e.exIR, args)
		shards[i] = &plan.ExplainNode{
			Op:         "shard",
			Detail:     fmt.Sprintf("shard %d/%d (cache hit)", i, nsh),
			EstRows:    e.est.Card / float64(nsh),
			EstCost:    e.est.Cost / float64(nsh),
			ActualRows: int64(len(r.Rows)),
			Children:   []*plan.ExplainNode{sroot},
		}
	}
	root := &plan.ExplainNode{
		Op: "shard-merge",
		Detail: fmt.Sprintf("%s; shard-cache %d/%d hits",
			e.ex.describe(nsh), nsh, nsh),
		EstRows:    e.est.Card,
		EstCost:    e.est.Cost,
		ActualRows: int64(len(rel.Rows)),
		Children:   shards,
	}
	exp := &plan.Explain{Backend: e.b.Name(), EstCost: e.est.Cost, EstCard: e.est.Card, Root: root}
	return &plan.RunResult{Tuples: rel.Decode(e.b.part.Base.Dict), Explain: exp}, nil
}

// Package search implements the cost-based cover search algorithms of
// Section 5.3: EDL (exhaustive over Lq and Gq) and GDL (greedy,
// Algorithm 1), including the time-limited GDL variant of Section 6.4.
// Both are parameterized by a cost estimator — either the engine
// profiles' explain-style estimation ("RDBMS") or the external model of
// package cost ("ext").
package search

import (
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// Estimator scores a candidate logical plan. The search assembles every
// cover's tree in the plan IR — the very tree the execution backend
// compiles — and asks the estimator to cost it, once per distinct cover,
// so the cost GDL assigns to the winning cover is the backend's
// estimate of the plan that runs.
//
// The trees of one search share their fragment subtrees (see
// evaluator), so an estimator that keeps per-subtree results, as the
// two below do, pays for each fragment once per search. That makes an
// ExtEstimator or RDBMSEstimator value a per-search object: it keeps the
// subtrees it has seen alive and their estimates frozen, so build a new
// one for each search; it is not safe for concurrent use.
type Estimator interface {
	Name() string
	Estimate(n *plan.Node) float64
}

// RDBMSEstimator uses the engine's per-profile plan costing — the
// paper's "explain through JDBC" option. It scores plans exactly as
// the native execution backend does.
type RDBMSEstimator struct {
	DB      *engine.DB
	Profile *engine.Profile

	backend *engine.Backend
	memo    engine.EstimateMemo
}

// Name identifies the estimator in reports.
func (e *RDBMSEstimator) Name() string { return "RDBMS(" + e.Profile.Name + ")" }

// Estimate plans the tree under the profile and returns its cost.
func (e *RDBMSEstimator) Estimate(n *plan.Node) float64 {
	if e.backend == nil {
		e.backend = engine.NewBackend(e.DB, e.Profile)
	}
	return e.backend.EstimateShared(n, &e.memo).Cost
}

// BackendEstimator scores plans through an execution backend's own
// Estimate — GDL over the sql or shard backend then optimizes the
// plan as that backend will run it (a sharded Estimate sums per-shard
// figures, so covers that align with the partitioning win). Such a
// backend costs every tree whole; it still gains from the search
// lowering each fragment once.
type BackendEstimator struct {
	Backend plan.Backend
}

// Name identifies the estimator in reports and memo keys.
func (e *BackendEstimator) Name() string { return "backend(" + e.Backend.Name() + ")" }

// Estimate delegates to the backend.
func (e *BackendEstimator) Estimate(n *plan.Node) float64 {
	return e.Backend.Estimate(n).Cost
}

// ExtEstimator uses the external cost model (package cost).
type ExtEstimator struct {
	Model *cost.Model

	frags map[*plan.Node]plan.Estimate
}

// Name identifies the estimator in reports.
func (e *ExtEstimator) Name() string { return "ext" }

// Estimate applies the textbook formulas to the plan tree.
func (e *ExtEstimator) Estimate(n *plan.Node) float64 {
	if e.frags == nil {
		e.frags = make(map[*plan.Node]plan.Estimate)
	}
	return e.Model.EstimateShared(n, e.frags).Cost
}

// Result is the outcome of a cover search.
type Result struct {
	Cover cover.Cover
	// Plan is the winning cover's logical plan — lowered and rewritten,
	// the tree the estimator scored — ready for plan.Validate and a
	// backend's Compile.
	Plan    *plan.Node
	Cost    float64
	Err     error
	Elapsed time.Duration

	// ExploredLq / ExploredGq count the distinct covers whose cost was
	// estimated, split into simple (∈ Lq) and generalized — the
	// quantities reported in Table 6.
	ExploredLq int
	ExploredGq int
	// Moves is the number of greedy moves applied (GDL only).
	Moves int

	// FragmentsEstimated counts the distinct fragments the explored
	// covers are made of: each was reformulated, lowered and handed to
	// the estimator as one subtree, to be costed once. FragmentsReused
	// counts the fragment slots of explored covers filled with a subtree
	// an earlier cover had already built. Their ratio is what the
	// fragment table saves over costing every cover from scratch.
	FragmentsEstimated int
	FragmentsReused    int
}

// Options tune the search.
type Options struct {
	// TimeLimit stops GDL after the given duration (0 = none): the
	// time-limited GDL of Section 6.4.
	TimeLimit time.Duration
	// MaxCovers caps EDL enumeration (the paper stops A6 at 20003
	// generalized covers). 0 = unlimited.
	MaxCovers int
	// Memo, when non-nil, carries cover cost estimates across the
	// searches that share it. Its only caller is the benchmark's traced
	// run (bench/traced.go), which builds a fresh one per staged
	// operation; core.Answerer leaves it nil, so every search starts
	// from nothing. A search given a memo that already holds some of its
	// covers reports less than a fresh one: estimates served from the
	// memo are left out of ExploredLq/ExploredGq (nothing was estimated
	// anew).
	Memo *Memo
}

// Memo is a concurrency-safe cross-search cache of cover cost
// estimates, keyed by (query canonical form, cover key, estimator
// name). Cover.Key only encodes the fragment bitmasks, so two queries
// with the same atom count produce colliding cover keys; the canonical
// form keeps them apart. Its holder must drop it when the TBox, the
// data, or the estimator's statistics change.
type Memo struct {
	mu sync.Mutex
	m  map[memoKey]float64
}

type memoKey struct {
	query string
	cover string
	est   string
}

// NewMemo returns an empty cross-search estimate cache.
func NewMemo() *Memo {
	return &Memo{m: make(map[memoKey]float64)}
}

func (m *Memo) get(k memoKey) (float64, bool) {
	m.mu.Lock()
	v, ok := m.m[k]
	m.mu.Unlock()
	return v, ok
}

func (m *Memo) put(k memoKey, v float64) {
	m.mu.Lock()
	m.m[k] = v
	m.mu.Unlock()
}

// evaluator costs the covers one search visits. Algorithm 1 moves from
// cover to cover by unioning two fragments or enlarging one, so a
// candidate differs from the current cover in at most two fragments;
// the evaluator therefore works at fragment granularity. Its fragment
// table maps a fragment's identity to its reformulated, lowered and
// rewritten IR subtree, built once per search; a cover's tree is
// plan.Cover over the subtrees of its fragments — the same tree
// plan.Rewrite(plan.FromJUCQ(j)) builds for its JUCQ j, but sharing
// every unchanged fragment with the trees before it (the IR is
// immutable, so sharing is safe). Estimators recognize shared subtrees
// by identity and cost each once.
//
// Cover costs are memoized by Cover.Key within the search, and through
// Options.Memo across searches.
type evaluator struct {
	ref     *reformulate.Reformulator
	est     Estimator
	estName string
	memo    *Memo
	scope   string // canonical form of the query, for memo keys
	seen    map[string]float64
	frags   map[cover.FragmentID]*plan.Node
	built   int // fragment table misses
	reused  int // fragment table hits
	lq      int
	gq      int
	err     error
}

func newEvaluator(ref *reformulate.Reformulator, est Estimator, memo *Memo, q query.CQ) *evaluator {
	ev := &evaluator{ref: ref, est: est, estName: est.Name(), memo: memo,
		seen: make(map[string]float64), frags: make(map[cover.FragmentID]*plan.Node)}
	if memo != nil {
		ev.scope = query.CanonicalKey(q)
	}
	return ev
}

// build assembles the cover's plan tree from the fragment table,
// reformulating and lowering the fragments not yet in it.
func (ev *evaluator) build(c cover.Cover) (*plan.Node, error) {
	trees := make([]*plan.Node, len(c.Frags))
	for k := range c.Frags {
		id := c.FragmentID(k)
		tree, ok := ev.frags[id]
		if ok {
			ev.reused++
		} else {
			u, err := c.ReformulateFragment(k, ev.ref)
			if err != nil {
				return nil, err
			}
			tree = plan.Rewrite(plan.FromUCQ(u))
			ev.frags[id] = tree
			ev.built++
		}
		trees[k] = tree
	}
	j := c.JUCQ(nil) // the cover's name and head
	return plan.Cover(j.Name, j.Head, trees), nil
}

// estimate returns the cover's cost, building and scoring its tree if
// the cover has not been seen before (in this search or in the shared
// memo). The estimator is called once per distinct cover.
func (ev *evaluator) estimate(c cover.Cover) (float64, bool) {
	key := c.Key()
	if v, ok := ev.seen[key]; ok {
		return v, true
	}
	mk := memoKey{query: ev.scope, cover: key, est: ev.estName}
	if ev.memo != nil {
		if v, ok := ev.memo.get(mk); ok {
			ev.seen[key] = v
			return v, true
		}
	}
	tree, err := ev.build(c)
	if err != nil {
		ev.err = err
		return 0, false
	}
	// The tree is the exact shape core.Answerer hands the execution
	// backend after its IR simplification pass.
	v := ev.est.Estimate(tree)
	ev.seen[key] = v
	if ev.memo != nil {
		ev.memo.put(mk, v)
	}
	if c.IsGeneralized() {
		ev.gq++
	} else {
		ev.lq++
	}
	return v, true
}

// result reports the search's outcome for the chosen cover. The
// fragment counters are read first: assembling the winner's plan goes
// through the fragment table once more (and, for a winner known only
// from the cross-search memo, builds it).
func (ev *evaluator) result(c cover.Cover, cost float64, moves int, start time.Time) Result {
	res := Result{
		Cover:              c,
		Cost:               cost,
		ExploredLq:         ev.lq,
		ExploredGq:         ev.gq,
		Moves:              moves,
		FragmentsEstimated: ev.built,
		FragmentsReused:    ev.reused,
	}
	res.Plan, res.Err = ev.build(c)
	res.Elapsed = time.Since(start)
	return res
}

// GDL runs the greedy cover search of Algorithm 1: starting from Croot,
// repeatedly apply the best cost-improving move among unioning two
// fragments and enlarging a fragment with a connected atom; stop when
// no move improves the current cover (or the time limit strikes, in
// which case the best improving move found so far in the interrupted
// round is still taken).
func GDL(q query.CQ, t *dllite.TBox, ref *reformulate.Reformulator, est Estimator, opts Options) Result {
	start := time.Now()
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }
	ev := newEvaluator(ref, est, opts.Memo, q)
	cur := cover.RootCover(q, t)
	curCost, ok := ev.estimate(cur)
	if !ok {
		return Result{Err: ev.err, Elapsed: time.Since(start)}
	}
	moves := 0
	for !expired() {
		bestCover, bestCost, found, ok := bestMove(ev, cur, curCost, expired)
		if !ok {
			return Result{Err: ev.err, Elapsed: time.Since(start)}
		}
		if !found {
			// Algorithm 1 stops when no candidate move has estimated
			// cost ≤ the current cover's. Equal-cost moves are taken;
			// termination is guaranteed because unions strictly reduce
			// the fragment count and enlargements strictly grow the
			// fragments.
			break
		}
		cur, curCost = bestCover, bestCost
		moves++
	}
	return ev.result(cur, curCost, moves, start)
}

// bestMove scans one round of Algorithm 1: every union of two fragments
// of cur and every enlargement of a fragment by a connected atom. It
// returns the best move found; when expired reports true mid-round the
// scan stops and the best move so far is returned. ok is false when a
// candidate could not be estimated (ev.err says why).
func bestMove(ev *evaluator, cur cover.Cover, curCost float64, expired func() bool) (best cover.Cover, bestCost float64, found, ok bool) {
	bestCost = curCost
	consider := func(c cover.Cover) bool {
		v, ok := ev.estimate(c)
		if !ok {
			return false
		}
		// Algorithm 1 keeps a move when it is at least as good as
		// the current cover and better than the best move so far.
		if (!found && v <= curCost) || (found && v < bestCost) {
			best, bestCost, found = c, v, true
		}
		return true
	}
	// Union moves.
	for i := 0; i < len(cur.Frags); i++ {
		for j := i + 1; j < len(cur.Frags); j++ {
			if !consider(cur.UnionFragments(i, j)) {
				return best, bestCost, found, false
			}
			if expired() {
				return best, bestCost, found, true
			}
		}
	}
	// Enlarge moves: add a connected atom to a fragment's F-part.
	for i := 0; i < len(cur.Frags); i++ {
		for a := 0; a < len(cur.Q.Atoms); a++ {
			c, applies := cur.EnlargeFragment(i, a)
			if !applies {
				continue
			}
			// The atom must share a variable with the fragment
			// (Algorithm 1, line 5) and keep the cover valid.
			if !fragmentConnectedTo(cur, i, a) || c.Validate() != nil {
				continue
			}
			if !consider(c) {
				return best, bestCost, found, false
			}
			if expired() {
				return best, bestCost, found, true
			}
		}
	}
	return best, bestCost, found, true
}

// fragmentConnectedTo reports whether atom a shares a variable with
// fragment i's F-part.
func fragmentConnectedTo(c cover.Cover, i, a int) bool {
	f := c.Frags[i].F
	for k := 0; k < len(c.Q.Atoms); k++ {
		if f&(1<<uint(k)) != 0 && c.Q.Atoms[k].SharesVar(c.Q.Atoms[a]) {
			return true
		}
	}
	return false
}

// EDL exhaustively searches Lq and Gq (Section 5.3), up to
// opts.MaxCovers covers, returning the cheapest cover found. As the
// paper observes (Table 6), this is only feasible for small queries.
func EDL(q query.CQ, t *dllite.TBox, ref *reformulate.Reformulator, est Estimator, opts Options) Result {
	start := time.Now()
	ev := newEvaluator(ref, est, opts.Memo, q)
	var best cover.Cover
	bestCost := -1.0
	cover.EnumerateGeneralizedCovers(q, t, opts.MaxCovers, func(c cover.Cover) bool {
		v, ok := ev.estimate(c)
		if !ok {
			return false
		}
		if bestCost < 0 || v < bestCost {
			best = c
			bestCost = v
		}
		return true
	})
	if ev.err != nil {
		return Result{Err: ev.err, Elapsed: time.Since(start)}
	}
	return ev.result(best, bestCost, 0, start)
}

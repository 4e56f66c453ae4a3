// Package core is the paper's contribution as a library: cost-driven
// cover-based query answering for DL-LiteR over an RDBMS-style engine
// (Figure 1). An Answerer owns the TBox, the loaded database, the
// engine profile, and the reformulation/search machinery; Answer runs
// one of the strategies the experiments compare:
//
//   - StrategyUCQ: the standard CQ-to-UCQ reformulation [13] evaluated
//     directly (the single-fragment cover).
//   - StrategyUSCQ: the CQ-to-USCQ reformulation [33].
//   - StrategyCroot: the JUCQ induced by the root cover (Definition 6).
//   - StrategyGDLRDBMS: GDL guided by the engine's own cost estimation.
//   - StrategyGDLExt: GDL guided by the external cost model ε.
//   - StrategyEDL: exhaustive search (small queries only).
//
// Every strategy computes the same certain answers (Theorems 1 and 3);
// they differ only in evaluation cost — and, on DB2-like profiles, in
// whether the SQL statement is accepted at all.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/sqlgen"
)

// Strategy selects how the FOL reformulation handed to the engine is
// chosen.
type Strategy string

// The strategies compared in the paper's experiments (Section 6).
const (
	StrategyUCQ      Strategy = "ucq"
	StrategyUCQMin   Strategy = "ucq-min" // §2.3's minimal UCQ
	StrategyUSCQ     Strategy = "uscq"
	StrategyCroot    Strategy = "croot"
	StrategyGDLRDBMS Strategy = "gdl-rdbms"
	StrategyGDLExt   Strategy = "gdl-ext"
	StrategyEDL      Strategy = "edl"
)

// Strategies lists all supported strategies.
func Strategies() []Strategy {
	return []Strategy{StrategyUCQ, StrategyUCQMin, StrategyUSCQ, StrategyCroot, StrategyGDLRDBMS, StrategyGDLExt, StrategyEDL}
}

// ValidStrategy reports whether s is one of Strategies().
func ValidStrategy(s Strategy) bool {
	for _, v := range Strategies() {
		if v == s {
			return true
		}
	}
	return false
}

// Description is the one-line summary of the strategy (served by
// GET /strategies).
func (s Strategy) Description() string {
	switch s {
	case StrategyUCQ:
		return "standard CQ-to-UCQ reformulation evaluated directly (single-fragment cover)"
	case StrategyUCQMin:
		return "containment-minimized UCQ reformulation (§2.3)"
	case StrategyUSCQ:
		return "factorized CQ-to-USCQ reformulation (semi-conjunctive disjuncts)"
	case StrategyCroot:
		return "JUCQ induced by the root cover (Definition 6), no search"
	case StrategyGDLRDBMS:
		return "greedy cover search costed by the engine's own estimation"
	case StrategyGDLExt:
		return "greedy cover search costed by the external model ε"
	case StrategyEDL:
		return "exhaustive cover search (small queries only)"
	}
	return ""
}

// Answerer answers conjunctive queries over a KB through the engine.
// Answer is safe for concurrent use: the reformulator, the answer
// cache, and the engine's statistics are all mutex-guarded, the profile
// is never mutated, and the database is read-only during evaluation.
// Each cover search starts from nothing, so its report (covers
// explored, fragments built) depends only on the query, the TBox, the
// data and the estimator, not on what the Answerer ran before.
type Answerer struct {
	TBox    *dllite.TBox
	DB      *engine.DB
	Profile *engine.Profile

	Ref        *reformulate.Reformulator
	SearchOpts search.Options

	// Backend compiles and executes the logical plans every strategy
	// lowers into. nil selects the native streaming engine;
	// sqlexec.NewBackend routes evaluation through the SQL text itself
	// (what shipping the reformulation to a real RDBMS does —
	// formerly the ViaSQL switch). The backend's Name keys the answer
	// cache, so swapping backends never serves a stale executable.
	Backend plan.Backend

	// Workers > 1 spreads evaluation over that many worker goroutines
	// (capped at GOMAXPROCS): union arms through the parallel union
	// operator, and the build sides of multi-fragment cover plans
	// through the streaming hash join's parallel build drain. Zero or
	// one keeps the fully sequential pipeline, matching the paper's
	// single-threaded engines. The SQL backend ignores it.
	Workers int

	// Cache, when non-nil, memoizes the front half of Answer (cover
	// search, reformulation, planning, compiling, statement sizing) per
	// query template, strategy, backend, TBox version and statistics
	// epoch: queries that differ only in their constants share one
	// entry, and each run binds its own. New enables it with
	// DefaultAnswerCacheSize; set to nil to re-run the full pipeline on
	// every request. Cached plans freeze the estimates of the epoch they
	// were planned in. A write re-plans only when it moves the epoch
	// (engine.Statistics.Epoch); otherwise the cached plan runs on the
	// new data, and answers as a re-plan would, since every safe cover
	// yields the same certain answers.
	Cache *AnswerCache

	// tboxVer counts TBox swaps (InvalidateTBox); it versions cache keys.
	tboxVer atomic.Uint64
}

// New wires an Answerer for the given TBox, database, and profile.
func New(tb *dllite.TBox, db *engine.DB, prof *engine.Profile) *Answerer {
	return &Answerer{
		TBox:    tb,
		DB:      db,
		Profile: prof,
		Ref:     reformulate.New(tb),
		Cache:   NewAnswerCache(DefaultAnswerCacheSize),
	}
}

// InvalidateTBox must be called after swapping in a new TBox: it
// rebuilds the reformulator's axiom indexes and bumps the TBox version
// so cached plans from the old ontology can no longer be served. ABox
// (data) mutations need no call here: the cache keys on the statistics
// epoch, which a write moves when it moves the statistics plans are
// costed on, and every run reads the live data.
func (a *Answerer) InvalidateTBox() {
	a.Ref = reformulate.New(a.TBox)
	a.tboxVer.Add(1)
	// Backends with their own caches (the shard backend's per-shard
	// plan/result LRUs) key on the data version only — a TBox swap must
	// flush them explicitly.
	if pc, ok := a.Backend.(interface{ PurgeCache() }); ok {
		pc.PurgeCache()
	}
}

// backend returns the configured execution backend, defaulting to the
// native streaming engine.
func (a *Answerer) backend() plan.Backend {
	if a.Backend != nil {
		return a.Backend
	}
	return engine.NewBackend(a.DB, a.Profile)
}

// Result reports one strategy's outcome on one query.
type Result struct {
	Strategy Strategy
	Query    query.CQ
	// Args are the query's constants, bound to the parameters of Plan
	// (query.Parameterize); nil for a query without constants.
	Args []string

	Tuples [][]string

	Cover        cover.Cover // over the template, bound to Args
	NumDisjuncts int         // total CQs (SCQs for uscq) across fragments
	NumFragments int

	// Plan is the logical plan the strategy lowered the query's
	// template into — the tree the backend compiled and ran with Args
	// (shared with the cache; do not mutate).
	Plan *plan.Node
	// Explain annotates the instance of Plan with the backend's
	// estimates and the actual per-operator row counters of this
	// execution.
	Explain *plan.Explain

	// SQLSize is the byte length of the statement shipped to the
	// RDBMS, sqlgen.Render(Plan, …) with Args; the text itself is
	// rendered only where it is read (the sql backend's Explain.SQL,
	// cmd/obda -sql).
	SQLSize int
	EstCost float64

	SearchTime time.Duration // cover search (zero for fixed strategies and cache hits)
	EvalTime   time.Duration

	// CacheHit reports that the front half — cover, reformulation,
	// plan, compiled executable and statement size — was reused from
	// the answer cache, possibly planned for other constants of the
	// same template: only evaluation ran for this request.
	CacheHit bool

	// Search carries the raw GDL/EDL result when applicable (fresh
	// searches only; cache hits skip the search entirely).
	Search *search.Result
}

// Answer runs the strategy end to end: choose a cover, reformulate,
// plan, enforce the profile's statement limit on the size of the SQL
// the plan renders to, and evaluate.
// The front half (everything up to and including planning) is served
// from the answer cache when possible; evaluation always runs against
// the live data.
func (a *Answerer) Answer(q query.CQ, s Strategy) (*Result, error) {
	return a.AnswerWith(q, s, nil)
}

// AnswerWith is Answer with a per-call execution backend override
// (nil selects the Answerer's configured backend). The cache keys by
// backend name, so one Answerer serves requests across backends
// without ever handing a plan compiled by one to another.
//
// The query is parameterized first (query.Parameterize): the front
// half runs on its template, which the TBox — naming no individuals —
// treats exactly as it would any instance, and only the run binds the
// constants. So every query of one template shares one search, one
// compiled plan and its pooled run states.
func (a *Answerer) AnswerWith(q query.CQ, s Strategy, backend plan.Backend) (*Result, error) {
	if backend == nil {
		backend = a.backend()
	}
	tmpl, args := query.Parameterize(q)
	res := &Result{Strategy: s, Query: q, Args: args}
	var key cacheKey
	if a.Cache != nil {
		key = cacheKey{
			canon:    query.CanonicalKey(tmpl),
			strategy: s,
			tboxVer:  a.tboxVer.Load(),
			// Stats, not a bare epoch read: it finalizes a pending
			// write, so the run below sees it.
			epoch:   a.DB.Stats().Epoch,
			backend: backend.Name(),
		}
		if cp, ok := a.Cache.get(key); ok {
			res.CacheHit = true
			return a.execute(cp, res)
		}
	}
	cp, err := a.buildPlan(tmpl, s, res, backend)
	if err != nil {
		return nil, err
	}
	if a.Cache != nil {
		a.Cache.put(key, cp)
	}
	return a.execute(cp, res)
}

// rewritePlan is the IR simplification pass buildPlan applies; a
// variable so tests can substitute a deliberately broken rewrite and
// prove every backend's Compile rejects its output at plan time.
var rewritePlan = plan.Rewrite

// buildPlan is the cacheable front half of Answer: choose the cover,
// reformulate it, plan the evaluation, compile it, and size its SQL,
// all for the template q. It fills res's search fields (fresh searches
// only reach here).
func (a *Answerer) buildPlan(q query.CQ, s Strategy, res *Result, backend plan.Backend) (*cachedPlan, error) {
	var c cover.Cover
	var sr *search.Result
	switch s {
	case StrategyUCQ, StrategyUCQMin, StrategyUSCQ:
		c = cover.SingleFragment(q)
	case StrategyCroot:
		c = cover.RootCover(q, a.TBox)
	case StrategyGDLRDBMS:
		// The "RDBMS's own estimation" is the executing backend's: a
		// non-native backend (sql, shard) scores candidate covers with
		// its own Estimate, so the search optimizes the plan that will
		// actually run there.
		var est search.Estimator = &search.RDBMSEstimator{DB: a.DB, Profile: a.Profile}
		if backend.Name() != "native" {
			est = &search.BackendEstimator{Backend: backend}
		}
		r := search.GDL(q, a.TBox, a.Ref, est, a.SearchOpts)
		sr = &r
	case StrategyGDLExt:
		r := search.GDL(q, a.TBox, a.Ref, &search.ExtEstimator{Model: cost.NewModel(a.DB)}, a.SearchOpts)
		sr = &r
	case StrategyEDL:
		opts := a.SearchOpts
		if opts.MaxCovers == 0 {
			opts.MaxCovers = 20000 // the paper's A6 cutoff
		}
		r := search.EDL(q, a.TBox, a.Ref, &search.ExtEstimator{Model: cost.NewModel(a.DB)}, opts)
		sr = &r
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", s)
	}
	if sr != nil {
		if sr.Err != nil {
			return nil, sr.Err
		}
		c = sr.Cover
		res.Search = sr
		res.SearchTime = sr.Elapsed
	}
	cp := &cachedPlan{cover: c, numFragments: len(c.Frags), searchTime: res.SearchTime}

	switch {
	case s == StrategyUSCQ:
		js, err := c.ReformulateJUSCQ(a.Ref)
		if err != nil {
			return nil, err
		}
		cp.ir = plan.FromJUSCQ(js)
	case sr != nil:
		// The search reformulated and lowered the winning cover, fragment
		// by fragment, to cost it: take its tree instead of doing both a
		// second time.
		cp.ir = sr.Plan
	default:
		j, err := c.ReformulateJUCQ(a.Ref)
		if err != nil {
			return nil, err
		}
		if s == StrategyUCQMin {
			// §2.3: evaluate the containment-minimized UCQ instead.
			m, err := a.Ref.ReformulateMinimal(q)
			if err != nil {
				return nil, err
			}
			j.Subs = []query.UCQ{m}
		}
		cp.ir = plan.FromJUCQ(j)
	}
	// Backend-neutral IR simplification (single-arm union collapse,
	// nested project merge) — applied here so every backend compiles
	// the same rewritten tree the search estimators scored; on a tree
	// the search hands over, already rewritten, it finds nothing to do.
	// rewritePlan is a variable only so tests can stand in a broken
	// rewrite and assert the backend rejects its output.
	cp.ir = rewritePlan(cp.ir)
	// Compile validates the rewritten tree (plan.Backend's contract): a
	// bad lowering or a buggy rewrite rule fails here, not as silently
	// wrong rows.
	exec, err := backend.Compile(cp.ir)
	if err != nil {
		return nil, err
	}
	cp.exec = exec
	// The statement-size limit reads only the length of the statement
	// the tree renders to, so count it instead of building it: once
	// for the template, leaving each instance's literals to execute.
	size, err := sqlgen.Measure(cp.ir, sqlgen.Options{Layout: a.DB.Layout})
	if err != nil {
		return nil, err
	}
	cp.sqlSize = size
	cp.numDisjuncts = numArms(cp.ir)
	return cp, nil
}

// execute runs a (possibly cached) plan with the query's constants
// bound: enforce the profile's statement limit on the instance's
// statement, run the compiled executable on the configured backend,
// and fill in the result (tuples, estimate, EXPLAIN).
func (a *Answerer) execute(cp *cachedPlan, res *Result) (*Result, error) {
	res.Cover = cp.cover
	if res.Args != nil {
		// The cover of the instance: the cached template bound to this
		// request's constants.
		res.Cover.Q = cp.cover.Q.Bind(res.Args)
	}
	res.NumFragments = cp.numFragments
	res.NumDisjuncts = cp.numDisjuncts
	res.Plan = cp.ir
	res.SQLSize = cp.sqlSize.Len(res.Args)
	if err := a.Profile.CheckStatementSize(res.SQLSize); err != nil {
		return res, err
	}
	est := cp.exec.Estimate()
	start := time.Now()
	rr, err := cp.exec.Run(a.Workers, res.Args...)
	if err != nil {
		return res, err
	}
	res.EvalTime = time.Since(start)
	res.Tuples = rr.Tuples
	res.EstCost = est.Cost
	res.Explain = rr.Explain
	return res, nil
}

// numArms counts the union arms across the plan's fragments. It runs on
// trees sqlgen.Measure has taken apart already, so plan.Arms cannot
// fail.
func numArms(n *plan.Node) int {
	frags := plan.CoverFragments(n)
	if frags == nil {
		frags = []*plan.Node{n}
	}
	total := 0
	for _, f := range frags {
		arms, _ := plan.Arms(f)
		total += len(arms)
	}
	return total
}

// Violation reports a disjointness constraint contradicted by the data.
type Violation struct {
	Axiom   dllite.Axiom
	Witness []string
}

// CheckConsistency verifies T-consistency of the loaded database by
// reformulation: for every negative constraint B1 ⊑ ¬B2, the boolean
// query asking for an individual in both B1 and B2 is answered through
// the engine; a non-empty answer is a violation. This scales to
// databases far beyond what dllite's saturation-based checker handles.
func (a *Answerer) CheckConsistency() ([]Violation, error) {
	var out []Violation
	for _, ax := range a.TBox.NegativeAxioms() {
		q, arity := unsatQuery(ax)
		u, err := a.Ref.Reformulate(q)
		if err != nil {
			return nil, err
		}
		ans := engine.EvaluateUCQ(u, a.DB, a.Profile)
		if len(ans.Tuples) > 0 {
			w := ans.Tuples[0][:arity]
			out = append(out, Violation{Axiom: ax, Witness: w})
		}
	}
	return out, nil
}

// unsatQuery builds the violation witness query of a negative axiom.
func unsatQuery(ax dllite.Axiom) (query.CQ, int) {
	x, y := query.Var("x"), query.Var("y")
	conceptAtom := func(c dllite.Concept, primary, spare query.Term) query.Atom {
		if !c.Exists {
			return query.ConceptAtom(c.Name, primary)
		}
		if c.Role.Inv {
			return query.RoleAtom(c.Role.Name, spare, primary)
		}
		return query.RoleAtom(c.Role.Name, primary, spare)
	}
	switch ax.Kind {
	case dllite.ConceptDisjointness:
		a1 := conceptAtom(ax.LC, x, query.Var("w1"))
		a2 := conceptAtom(ax.RC, x, query.Var("w2"))
		return query.CQ{Name: "unsat", Head: []query.Term{x}, Atoms: []query.Atom{a1, a2}}, 1
	default: // RoleDisjointness
		s1, o1 := x, y
		if ax.LR.Inv {
			s1, o1 = y, x
		}
		s2, o2 := x, y
		if ax.RR.Inv {
			s2, o2 = y, x
		}
		return query.CQ{Name: "unsat", Head: []query.Term{x, y}, Atoms: []query.Atom{
			query.RoleAtom(ax.LR.Name, s1, o1),
			query.RoleAtom(ax.RR.Name, s2, o2),
		}}, 2
	}
}

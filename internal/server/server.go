// Package server exposes an Answerer over a small JSON-HTTP API — the
// shape OBDA deployments take in practice (the paper's motivation cites
// national-scale medical-records services). Endpoints:
//
//	POST /query        {"query": "q(x) <- A(x)", "strategy": "gdl-ext", "backend": "shard"}
//	POST /explain      same payload; returns the EXPLAIN annotation
//	GET  /explain      ?query=...&strategy=...&backend=... (convenience form)
//	GET  /consistency  T-consistency report
//	GET  /stats        database statistics
//	GET  /strategies   supported strategies with descriptions
//	GET  /backends     registered execution backends with descriptions
//
// The handler is a plain http.Handler, wired by cmd/obdaserver and
// tested with httptest.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// Server handles OBDA requests over one Answerer. Answer is safe for
// concurrent use, so requests run concurrently up to GOMAXPROCS; the
// semaphore only bounds how many evaluations compete for CPU at once.
// Hot queries hit the Answerer's plan cache and skip straight to
// evaluation.
type Server struct {
	A   *core.Answerer
	mux *http.ServeMux
	sem chan struct{}

	defaultBackend string
	shards         int
	bmu            sync.Mutex
	backends       map[string]*backendEntry
}

// backendEntry caches one lazily constructed backend. Construction
// runs under the entry's Once, not under bmu: building the shard
// backend partitions the whole database (locking its statistics), and
// holding bmu across that would stall every concurrent request on an
// unrelated backend — the lock-across-blocking-call shape the
// lockorder analyzer flags.
type backendEntry struct {
	once sync.Once
	b    plan.Backend
	err  error
}

// Options configure the server's execution backends.
type Options struct {
	// DefaultBackend serves requests that name no backend ("" →
	// "native"). Must be a registered backend name.
	DefaultBackend string
	// Shards is the shard backend's fan-out (< 1 → GOMAXPROCS).
	Shards int
}

// NewWithOptions builds the HTTP server around an Answerer. Backends
// are constructed lazily on first use (the shard backend partitions
// the whole database) and cached for the server's lifetime — the data
// is read-only while serving.
func NewWithOptions(a *core.Answerer, opts Options) *Server {
	def := opts.DefaultBackend
	if def == "" {
		def = "native"
	}
	s := &Server{
		A:              a,
		mux:            http.NewServeMux(),
		sem:            make(chan struct{}, runtime.GOMAXPROCS(0)),
		defaultBackend: def,
		shards:         opts.Shards,
		backends:       make(map[string]*backendEntry),
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("GET /consistency", s.handleConsistency)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /strategies", s.handleStrategies)
	s.mux.HandleFunc("GET /backends", s.handleBackends)
	return s
}

// backendFor returns the named execution backend, constructing and
// caching it on first use. bmu guards only the map lookup; the
// construction itself runs once per name under the entry's Once, so
// concurrent requests for other backends never wait on it.
func (s *Server) backendFor(name string) (plan.Backend, error) {
	s.bmu.Lock()
	e, ok := s.backends[name]
	if !ok {
		e = &backendEntry{}
		s.backends[name] = e
	}
	s.bmu.Unlock()
	e.once.Do(func() {
		e.b, e.err = core.NewBackendByName(name, s.A.DB, s.A.Profile, s.shards)
	})
	return e.b, e.err
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// QueryRequest is the POST /query payload.
type QueryRequest struct {
	Query    string `json:"query"`
	Strategy string `json:"strategy,omitempty"` // default gdl-ext
	Backend  string `json:"backend,omitempty"`  // default the server's -backend
}

// QueryResponse is the POST /query result.
type QueryResponse struct {
	Answers   [][]string `json:"answers"`
	Strategy  string     `json:"strategy"`
	Fragments int        `json:"fragments"`
	Disjuncts int        `json:"disjuncts"`
	SQLBytes  int        `json:"sqlBytes"`
	SearchMs  float64    `json:"searchMs"`
	EvalMs    float64    `json:"evalMs"`
	Cover     string     `json:"cover"`
	Backend   string     `json:"backend"`
	// CacheHit reports that the front half (search, plan, compiled
	// executable) was reused, possibly from another constant of the
	// query's template; only evaluation ran.
	CacheHit bool `json:"cacheHit"`
	// ShardCache carries the shard backend's cumulative plan/result
	// cache counters; absent for backends without a cache.
	ShardCache *ShardCacheStats `json:"shardCache,omitempty"`
}

// ShardCacheStats reports a caching backend's cumulative hit/miss
// counters (the shard backend's plan and result caches summed).
type ShardCacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// cacheStatsOf extracts the optional cache counters from a backend.
func cacheStatsOf(b plan.Backend) *ShardCacheStats {
	if cs, ok := b.(interface{ CacheStats() (hits, misses uint64) }); ok {
		h, m := cs.CacheStats()
		return &ShardCacheStats{Hits: h, Misses: m}
	}
	return nil
}

// decodeRequest parses a query+strategy+backend triple from the
// request (JSON body for POST, URL parameters for GET), validating
// the strategy and backend names against their registries.
func (s *Server) decodeRequest(r *http.Request) (query.CQ, core.Strategy, string, int, error) {
	var req QueryRequest
	if r.Method == http.MethodGet {
		req.Query = r.URL.Query().Get("query")
		req.Strategy = r.URL.Query().Get("strategy")
		req.Backend = r.URL.Query().Get("backend")
	} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return query.CQ{}, "", "", http.StatusBadRequest, errors.New("bad JSON: " + err.Error())
	}
	q, err := query.ParseCQ(req.Query)
	if err != nil {
		return query.CQ{}, "", "", http.StatusBadRequest, err
	}
	strategy := core.Strategy(req.Strategy)
	if req.Strategy == "" {
		strategy = core.StrategyGDLExt
	}
	if !core.ValidStrategy(strategy) {
		valid := make([]string, 0, len(core.Strategies()))
		for _, st := range core.Strategies() {
			valid = append(valid, string(st))
		}
		return query.CQ{}, "", "", http.StatusBadRequest,
			fmt.Errorf("unknown strategy %q (valid: %s)", req.Strategy, strings.Join(valid, ", "))
	}
	backend := req.Backend
	if backend == "" {
		backend = s.defaultBackend
	}
	if !core.ValidBackend(backend) {
		return query.CQ{}, "", "", http.StatusBadRequest,
			fmt.Errorf("unknown backend %q (valid: %s)", req.Backend, strings.Join(core.BackendNames(), ", "))
	}
	return q, strategy, backend, 0, nil
}

// answer runs the request through the Answerer under the CPU
// semaphore, mapping failures onto HTTP status codes.
func (s *Server) answer(w http.ResponseWriter, r *http.Request) (*core.Result, plan.Backend) {
	q, strategy, backendName, code, err := s.decodeRequest(r)
	if err != nil {
		httpError(w, code, err.Error())
		return nil, nil
	}
	backend, err := s.backendFor(backendName)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, nil
	}
	s.sem <- struct{}{}
	res, err := s.A.AnswerWith(q, strategy, backend)
	<-s.sem
	if err != nil {
		var tooLong *engine.StatementTooLongError
		if errors.As(err, &tooLong) {
			httpError(w, http.StatusRequestEntityTooLarge, err.Error())
			return nil, nil
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, nil
	}
	return res, backend
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	res, backend := s.answer(w, r)
	if res == nil {
		return
	}
	resp := QueryResponse{
		Answers:    res.Tuples,
		Strategy:   string(res.Strategy),
		Fragments:  res.NumFragments,
		Disjuncts:  res.NumDisjuncts,
		SQLBytes:   res.SQLSize,
		SearchMs:   ms(res.SearchTime),
		EvalMs:     ms(res.EvalTime),
		Cover:      res.Cover.String(),
		CacheHit:   res.CacheHit,
		ShardCache: cacheStatsOf(backend),
	}
	if res.Explain != nil {
		resp.Backend = res.Explain.Backend
	}
	writeJSON(w, resp)
}

// ExplainResponse is the /explain result: the strategy's chosen cover
// and the backend's annotated plan (estimated cost/cardinality plus
// the actual per-operator row counters of the run), both as a
// structured tree and pre-rendered text.
type ExplainResponse struct {
	Strategy  string `json:"strategy"`
	Cover     string `json:"cover"`
	Fragments int    `json:"fragments"`
	Disjuncts int    `json:"disjuncts"`
	Answers   int    `json:"answers"`
	CacheHit  bool   `json:"cacheHit"`
	// ShardCache mirrors QueryResponse.ShardCache.
	ShardCache *ShardCacheStats `json:"shardCache,omitempty"`
	// Search reports the cover search behind the plan: present for the
	// search strategies when the search ran for this request (a cache
	// hit skips it).
	Search  *SearchStats  `json:"search,omitempty"`
	Explain *plan.Explain `json:"explain"`
	Text    string        `json:"text"`
}

// SearchStats is the cover search's work: the distinct covers whose
// cost was estimated, and the fragments those covers were assembled
// from — each fragment reformulated, lowered and costed once, then
// reused by every other cover containing it.
type SearchStats struct {
	ExploredLq         int `json:"exploredLq"`
	ExploredGq         int `json:"exploredGq"`
	Moves              int `json:"moves"`
	FragmentsEstimated int `json:"fragmentsEstimated"`
	FragmentsReused    int `json:"fragmentsReused"`
}

// handleExplain answers the query like POST /query but returns the
// EXPLAIN annotation instead of the tuples.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	res, backend := s.answer(w, r)
	if res == nil {
		return
	}
	resp := ExplainResponse{
		Strategy:   string(res.Strategy),
		Cover:      res.Cover.String(),
		Fragments:  res.NumFragments,
		Disjuncts:  res.NumDisjuncts,
		Answers:    len(res.Tuples),
		CacheHit:   res.CacheHit,
		ShardCache: cacheStatsOf(backend),
		Explain:    res.Explain,
	}
	if sr := res.Search; sr != nil {
		resp.Search = &SearchStats{
			ExploredLq: sr.ExploredLq, ExploredGq: sr.ExploredGq, Moves: sr.Moves,
			FragmentsEstimated: sr.FragmentsEstimated, FragmentsReused: sr.FragmentsReused,
		}
	}
	if res.Explain != nil {
		resp.Text = res.Explain.Text()
	}
	writeJSON(w, resp)
}

// ConsistencyResponse reports T-consistency.
type ConsistencyResponse struct {
	Consistent bool     `json:"consistent"`
	Violations []string `json:"violations,omitempty"`
}

func (s *Server) handleConsistency(w http.ResponseWriter, r *http.Request) {
	s.sem <- struct{}{}
	violations, err := s.A.CheckConsistency()
	<-s.sem
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := ConsistencyResponse{Consistent: len(violations) == 0}
	for _, v := range violations {
		resp.Violations = append(resp.Violations,
			v.Axiom.String()+" violated by "+joinWitness(v.Witness))
	}
	writeJSON(w, resp)
}

func joinWitness(w []string) string {
	out := ""
	for i, s := range w {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// StatsResponse summarizes the loaded database.
type StatsResponse struct {
	Facts    int    `json:"facts"`
	Entities int    `json:"entities"`
	Concepts int    `json:"concepts"`
	Roles    int    `json:"roles"`
	Layout   string `json:"layout"`
	Profile  string `json:"profile"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.A.DB.Stats()
	writeJSON(w, StatsResponse{
		Facts:    st.TotalFacts,
		Entities: st.TotalEntities,
		Concepts: len(st.ConceptCard),
		Roles:    len(st.RoleCard),
		Layout:   s.A.DB.Layout.String(),
		Profile:  s.A.Profile.Name,
	})
}

// StrategyInfo describes one strategy in GET /strategies.
type StrategyInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	out := make([]StrategyInfo, 0, len(core.Strategies()))
	for _, st := range core.Strategies() {
		out = append(out, StrategyInfo{Name: string(st), Description: st.Description()})
	}
	writeJSON(w, out)
}

// BackendInfo describes one execution backend in GET /backends.
type BackendInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Default     bool   `json:"default,omitempty"`
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	specs := core.BackendSpecs()
	out := make([]BackendInfo, 0, len(specs))
	for _, sp := range specs {
		out = append(out, BackendInfo{
			Name:        sp.Name,
			Description: sp.Description,
			Default:     sp.Name == s.defaultBackend,
		})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

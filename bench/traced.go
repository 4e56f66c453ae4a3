package main

import (
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/search"
	"repro/internal/sqlgen"
)

// The traced run times the calls into each layer's public functions
// from here, outside the program: the same calls, in the same order,
// that core.buildPlan and core.execute make. Nothing in internal/ is
// instrumented; spans inside the program are a later change.

// tracedEstimator wraps the search.Estimator handed to the cover
// search, so each estimate is a child span of the search and is counted.
type tracedEstimator struct {
	inner search.Estimator
	s     *stagedOp // its open stage is the parent of every estimate span
	name  string
	calls int
	took  time.Duration
}

// Name must be the inner name: it scopes the search memo's keys.
func (t *tracedEstimator) Name() string { return t.inner.Name() }

func (t *tracedEstimator) Estimate(n *plan.Node) float64 {
	id := t.s.tr.start(t.name, t.s.cur, 0)
	t0 := time.Now()
	v := t.inner.Estimate(n)
	t.took += time.Since(t0)
	t.s.tr.end(id)
	t.calls++
	return v
}

// stagedOp is one operation taken apart into its stages.
type stagedOp struct {
	tr   *tracer
	root int
	cur  int // the open stage's span, parent of estimator spans
	dur  map[string]time.Duration

	ir        *plan.Node
	exec      plan.Executable
	run       *plan.RunResult
	nodes     int
	sqlBytes  int
	fragments int
	explored  int
	estimator *tracedEstimator
}

// stage times f as a child span of the op.
func (s *stagedOp) stage(name string, f func() error) error {
	s.cur = s.tr.start(name, s.root, 0)
	t0 := time.Now()
	err := f()
	s.dur[name] += time.Since(t0)
	s.tr.end(s.cur)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// sum adds up the stages AnswerWith also runs (it is handed a parsed
// query, so parsing stays out).
func (s *stagedOp) sum() time.Duration {
	var d time.Duration
	for name, v := range s.dur {
		if name != "query.parse" {
			d += v
		}
	}
	return d
}

// stagedCold runs one class from text to tuples with every cache of
// the front half empty, on the given backend, whose compile and run
// stages are named after layer. A nil tracer records no spans and
// leaves the estimator unwrapped: that is the untraced twin the
// tracing overhead is measured against.
func stagedCold(e *env, c class, text string, backend plan.Backend, layer string, workers int, tr *tracer, opID int) (*stagedOp, error) {
	// Untimed, as in the end-to-end workloads: what InvalidateTBox
	// leaves behind.
	ref := reformulate.New(e.tbox)
	model := cost.NewModel(e.db)
	opts := search.Options{Memo: search.NewMemo()}

	s := &stagedOp{tr: tr, dur: make(map[string]time.Duration)}
	s.root = tr.start("op:"+c.Name, -1, opID)
	defer tr.end(s.root)
	wrap := func(inner search.Estimator, name string) search.Estimator {
		if tr == nil {
			return inner
		}
		s.estimator = &tracedEstimator{inner: inner, s: s, name: name}
		return s.estimator
	}

	var q query.CQ
	if err := s.stage("query.parse", func() (err error) { q, err = query.ParseCQ(text); return }); err != nil {
		return nil, err
	}
	_ = s.stage("query.canon", func() error { _ = query.CanonicalKey(q); return nil })

	var cov cover.Cover
	strategy := c.strategy()
	searched := func(name string, run func() search.Result) error {
		return s.stage(name, func() error {
			sr := run()
			cov, s.explored = sr.Cover, sr.ExploredLq+sr.ExploredGq
			return sr.Err
		})
	}
	var err error
	switch strategy {
	case core.StrategyUCQ, core.StrategyUSCQ:
		err = s.stage("cover.single", func() error { cov = cover.SingleFragment(q); return nil })
	case core.StrategyCroot:
		err = s.stage("cover.root", func() error { cov = cover.RootCover(q, e.tbox); return nil })
	case core.StrategyGDLExt:
		est := wrap(&search.ExtEstimator{Model: model}, "cost.estimate")
		err = searched("search.gdl_ext", func() search.Result { return search.GDL(q, e.tbox, ref, est, opts) })
	case core.StrategyGDLRDBMS:
		est := wrap(&search.RDBMSEstimator{DB: e.db, Profile: e.prof}, "engine.estimate")
		err = searched("search.gdl_rdbms", func() search.Result { return search.GDL(q, e.tbox, ref, est, opts) })
	case core.StrategyEDL:
		est := wrap(&search.ExtEstimator{Model: model}, "cost.estimate")
		opts.MaxCovers = 20000 // as core.buildPlan
		err = searched("search.edl", func() search.Result { return search.EDL(q, e.tbox, ref, est, opts) })
	default:
		err = fmt.Errorf("no staged pipeline for strategy %q", strategy)
	}
	if err != nil {
		return nil, err
	}
	s.fragments = len(cov.Frags)

	if strategy == core.StrategyUSCQ {
		var js query.JUSCQ
		if err := s.stage("cover.reform", func() (err error) { js, err = cov.ReformulateJUSCQ(ref); return }); err != nil {
			return nil, err
		}
		_ = s.stage("sqlgen.gen", func() error {
			s.sqlBytes = len(sqlgen.JUSCQ(js, sqlgen.Options{Layout: e.db.Layout}))
			return nil
		})
		_ = s.stage("plan.lower", func() error { s.ir = plan.FromJUSCQ(js); return nil })
	} else {
		var j query.JUCQ
		if err := s.stage("cover.reform", func() (err error) { j, err = cov.ReformulateJUCQ(ref); return }); err != nil {
			return nil, err
		}
		_ = s.stage("sqlgen.gen", func() error {
			s.sqlBytes = len(sqlgen.JUCQ(j, sqlgen.Options{Layout: e.db.Layout}))
			return nil
		})
		_ = s.stage("plan.lower", func() error { s.ir = plan.FromJUCQ(j); return nil })
	}
	_ = s.stage("plan.rewrite", func() error { s.ir = plan.Rewrite(s.ir); return nil })
	if err := s.stage("plan.validate", func() error { return plan.Validate(s.ir) }); err != nil {
		return nil, err
	}
	s.nodes = plan.NodeCount(s.ir)
	if err := s.stage(layer+".compile", func() (err error) { s.exec, err = backend.Compile(s.ir); return }); err != nil {
		return nil, err
	}
	if err := s.stage(layer+".run", func() (err error) { s.run, err = s.exec.Run(workers); return }); err != nil {
		return nil, err
	}
	return s, nil
}

// leafRows sums the actual row counters of the plan's leaves: the rows
// the access paths handed to the rest of the plan.
func leafRows(n *plan.ExplainNode) int64 {
	if n == nil {
		return 0
	}
	if len(n.Children) == 0 {
		return max(n.ActualRows, 0)
	}
	var sum int64
	for _, c := range n.Children {
		sum += leafRows(c)
	}
	return sum
}

var movedRows = regexp.MustCompile(`moved (\d+) rows`)

// rowsMoved reads the exchange's row count off the shard EXPLAIN root.
func rowsMoved(ex *plan.Explain) float64 {
	if ex == nil || ex.Root == nil {
		return 0
	}
	if m := movedRows.FindStringSubmatch(ex.Root.Detail); m != nil {
		n, _ := strconv.Atoi(m[1]) // the pattern admits digits only
		return float64(n)
	}
	return 0
}

// tally collects one round's samples per metric; the round's value is
// their mean, the per-op cost over the workload's class mix.
type tally map[string][]float64

func (t tally) add(name string, v float64) { t[name] = append(t[name], v) }

func (t tally) sum(name string) float64 { return sum(t[name]) }

// timed runs f as a child span of parent and returns how long it took.
func timed(tr *tracer, name string, parent int, f func()) time.Duration {
	id := tr.start(name, parent, 0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	tr.end(id)
	return d
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	e      *env
	ref    reference
	in     *inputs
	tr     *tracer
	native plan.Backend
	sql    plan.Backend
	shard  plan.Backend
	client executor // posts to the env's own HTTP server

	warm int // how often each warm stage repeats; its median is the class's sample

	attempted, failed int
	nextOp            int
}

// instanceOf returns the text a class is staged with and the key of
// its reference answer: templates take their hottest constant.
func (r *tracedRun) instanceOf(c class) (text, key string) {
	if !c.template() {
		return r.e.w.fill(c, "")
	}
	return r.e.w.fill(c, r.in.slots[c.Slot][0])
}

// verify counts one checked answer.
func (r *tracedRun) verify(what, key string, tuples [][]string) {
	r.attempted++
	if !r.ref.check(op{RefKey: key}, tuples) {
		r.failed++
		if r.failed <= 3 {
			fmt.Printf("  FAIL %s %s: got=%v\n", what, key, digest(tuples))
		}
	}
}

func (r *tracedRun) opID() int { r.nextOp++; return 1<<30 | r.nextOp }

// stageClass runs every stage of one class once and adds the samples
// to the round's tally.
func (r *tracedRun) stageClass(ci int, t tally) error {
	e, c := r.e, r.e.w.Classes[ci]
	text, key := r.instanceOf(c)
	strategy := c.strategy()

	// The workload's own backend decides which compile and run belong
	// to the op; the other is staged on its own below.
	wlBackend, wlLayer := r.native, "engine"
	if e.w.Shard {
		wlBackend, wlLayer = r.shard, "shard"
	}
	// The traced op and its untraced twin, which of the two goes first
	// alternating by class: the second finds the processor's caches warm.
	var a, b *stagedOp
	var err error
	for _, traced := range []bool{ci%2 == 0, ci%2 != 0} {
		if e.purge != nil {
			e.purge()
		}
		if traced {
			a, err = stagedCold(e, c, text, wlBackend, wlLayer, e.a.Workers, r.tr, r.opID())
		} else {
			b, err = stagedCold(e, c, text, wlBackend, wlLayer, e.a.Workers, nil, 0)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	r.verify("staged "+c.Name, key, a.run.Tuples)
	t.add("staged.traced_ms", msOf(a.sum()))
	t.add("staged.untraced_ms", msOf(b.sum()))

	t.add("query.parse_us", usOf(a.dur["query.parse"]))
	t.add("query.canon_us", usOf(a.dur["query.canon"]))
	t.add("cover.reform_jucq_ms", msOf(a.dur["cover.reform"]))
	t.add("cover.fragments", float64(a.fragments))
	t.add("sqlgen.gen_us", usOf(a.dur["sqlgen.gen"]))
	t.add("sqlgen.sql_bytes", float64(a.sqlBytes))
	t.add("plan.lower_us", usOf(a.dur["plan.lower"]))
	t.add("plan.rewrite_us", usOf(a.dur["plan.rewrite"]))
	t.add("plan.validate_us", usOf(a.dur["plan.validate"]))
	t.add("plan.nodes", float64(a.nodes))
	if c.searches() {
		span := "search." + strings.ReplaceAll(string(strategy), "-", "_")
		t.add(span+"_ms", msOf(a.dur[span]))
		t.add("search.covers_explored", float64(a.explored))
		t.add("search.estimate_calls", float64(a.estimator.calls))
		t.add("search.self_ms", msOf(a.dur[span]-a.estimator.took))
		layer := "cost"
		if strategy == core.StrategyGDLRDBMS {
			layer = "engine"
		}
		t.add(layer+".estimate_us", usOf(a.estimator.took)/float64(max(a.estimator.calls, 1)))
		t.add(layer+".estimate_total_ms", msOf(a.estimator.took))
		t.add(layer+".search_total_ms", msOf(a.dur[span]))
	}

	// Native compile and warm runs, sequential and with P workers.
	root := r.tr.start("warm:"+c.Name, -1, r.opID())
	nexec := a.exec
	if e.w.Shard {
		d := timed(r.tr, "engine.compile", root, func() { nexec, err = r.native.Compile(a.ir) })
		if err != nil {
			return fmt.Errorf("%s: native compile: %w", c.Name, err)
		}
		t.add("engine.compile_ms", msOf(d))
	} else {
		t.add("engine.compile_ms", msOf(a.dur["engine.compile"]))
	}
	var runs, runsP []float64
	var last *plan.RunResult
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range r.warm {
		d := timed(r.tr, "engine.run", root, func() { last, err = nexec.Run(1) })
		if err != nil {
			return fmt.Errorf("%s: native run: %w", c.Name, err)
		}
		runs = append(runs, msOf(d))
	}
	runtime.ReadMemStats(&m1)
	r.verify("native "+c.Name, key, last.Tuples)
	for range r.warm {
		d := timed(r.tr, "engine.run_wP", root, func() { _, err = nexec.Run(P) })
		if err != nil {
			return fmt.Errorf("%s: native run: %w", c.Name, err)
		}
		runsP = append(runsP, msOf(d))
	}
	examined := float64(leafRows(last.Explain.Root))
	t.add("engine.run_ms", median(runs))
	t.add("engine.run_wP_ms", median(runsP))
	t.add("engine.rows_examined", examined)
	t.add("engine.rows_out", float64(len(last.Tuples)))
	t.add("engine.alloc_kb_per_run", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(r.warm))

	// The shard backend: cold runs with its result cache purged, then
	// one replay that the cache may serve.
	purger := r.shard.(interface{ PurgeCache() })
	stats := r.shard.(interface{ CacheStats() (uint64, uint64) })
	sexec := a.exec
	if e.w.Shard {
		t.add("shard.compile_ms", msOf(a.dur["shard.compile"]))
	} else {
		purger.PurgeCache()
		d := timed(r.tr, "shard.compile", root, func() { sexec, err = r.shard.Compile(a.ir) })
		if err != nil {
			return fmt.Errorf("%s: shard compile: %w", c.Name, err)
		}
		t.add("shard.compile_ms", msOf(d))
	}
	var sruns []float64
	h0, s0 := stats.CacheStats()
	for range r.warm {
		purger.PurgeCache()
		d := timed(r.tr, "shard.run", root, func() { last, err = sexec.Run(P) })
		if err != nil {
			return fmt.Errorf("%s: shard run: %w", c.Name, err)
		}
		sruns = append(sruns, msOf(d))
	}
	t.add("shard.rows_moved", rowsMoved(last.Explain))
	if last, err = sexec.Run(P); err != nil {
		return fmt.Errorf("%s: shard replay: %w", c.Name, err)
	}
	h1, s1 := stats.CacheStats()
	r.verify("shard "+c.Name, key, last.Tuples)
	t.add("shard.run_ms", median(sruns))
	t.add("shard.cache_hits", float64(h1-h0))
	t.add("shard.cache_lookups", float64(h1-h0+s1-s0))
	t.add("shard.speedup", ratio(median(runs), median(sruns)))

	// The reference evaluator, once: it is slow on purpose.
	var xexec plan.Executable
	d := timed(r.tr, "sqlexec.compile", root, func() { xexec, err = r.sql.Compile(a.ir) })
	if err != nil {
		return fmt.Errorf("%s: sql compile: %w", c.Name, err)
	}
	t.add("sqlexec.compile_ms", msOf(d))
	d = timed(r.tr, "sqlexec.run", root, func() { last, err = xexec.Run(1) })
	if err != nil {
		return fmt.Errorf("%s: sql run: %w", c.Name, err)
	}
	t.add("sqlexec.run_ms", msOf(d))
	r.verify("sql "+c.Name, key, last.Tuples)
	r.tr.end(root)

	// The whole trip through core, cold then warm, on the workload's
	// backend; the staged sum is only trusted if it matches the cold one.
	q := query.MustParseCQ(text)
	croot := r.tr.start("core:"+c.Name, -1, r.opID())
	t.add("core.invalidate_us", usOf(timed(r.tr, "core.invalidate", croot, e.a.InvalidateTBox)))
	if e.purge != nil {
		e.purge()
	}
	var res *core.Result
	d = timed(r.tr, "core.answer_cold", croot, func() { res, err = e.a.AnswerWith(q, strategy, e.backend) })
	if err != nil {
		return fmt.Errorf("%s: AnswerWith: %w", c.Name, err)
	}
	t.add("core.answer_cold_ms", msOf(d))
	var warm []float64
	for range r.warm {
		if e.purge != nil {
			e.purge()
		}
		d := timed(r.tr, "core.answer_warm", croot, func() { res, err = e.a.AnswerWith(q, strategy, e.backend) })
		if err != nil {
			return fmt.Errorf("%s: AnswerWith: %w", c.Name, err)
		}
		warm = append(warm, msOf(d))
	}
	r.tr.end(croot)
	r.verify("core "+c.Name, key, res.Tuples)
	t.add("core.answer_warm_ms", median(warm))

	// Through POST /query, warm: what the server adds to the answer.
	o := op{Class: ci, Text: text, RefKey: key}
	if first := r.client.do(o); first.err != nil {
		return fmt.Errorf("%s: POST /query: %w", c.Name, first.err)
	}
	var over, kb []float64
	for range r.warm {
		id := r.tr.start("server.query", -1, r.opID())
		hr := r.client.do(o)
		r.tr.end(id)
		if hr.err != nil {
			return fmt.Errorf("%s: POST /query: %w", c.Name, hr.err)
		}
		r.verify("server "+c.Name, key, hr.tuples)
		over = append(over, usOf(hr.lat-hr.eval-hr.search))
		kb = append(kb, float64(hr.bytes)/1024)
	}
	t.add("server.overhead_us", median(over))
	t.add("server.resp_kb", median(kb))
	return nil
}

// probeQueries times what no single op isolates: a cold and a memoized
// PerfectRef reformulation and the root cover, per distinct query.
func (r *tracedRun) probeQueries(t tally) error {
	seen := map[string]bool{}
	for _, c := range r.e.w.Classes {
		if seen[c.Query] {
			continue
		}
		seen[c.Query] = true
		text, _ := r.instanceOf(c)
		q := query.MustParseCQ(text)
		ref := reformulate.New(r.e.tbox) // untimed: a reformulator with an empty memo
		root := r.tr.start("probe:"+c.Query, -1, r.opID())
		var u query.UCQ
		var err error
		t.add("reformulate.cold_ms", msOf(timed(r.tr, "reformulate.cold", root, func() { u, err = ref.Reformulate(q) })))
		if err != nil {
			return fmt.Errorf("%s: reformulate: %w", c.Query, err)
		}
		var memo []float64
		for range r.warm {
			memo = append(memo, usOf(timed(r.tr, "reformulate.memo", root, func() { _, _ = ref.Reformulate(q) })))
		}
		t.add("reformulate.memo_us", median(memo))
		t.add("reformulate.disjuncts", float64(len(u.Disjuncts)))
		t.add("cover.root_us", usOf(timed(r.tr, "cover.root", root, func() { _ = cover.RootCover(q, r.e.tbox) })))
		r.tr.end(root)
	}
	return nil
}

// probeDB times loading a database of the workload's scale and what a
// write to it costs: the fact itself, then the Finalize that makes it
// readable.
func probeDB(w *workload, seed int64, tr *tracer, t tally) {
	var writes, finals []float64
	root := tr.start("probe:db", -1, 1<<29)
	var db *engine.DB
	generate := timed(tr, "db.generate", root, func() { db = generateDB(w, seed) })
	db.Finalize()
	for i := range 20 {
		subject := fmt.Sprintf("bench_probe_%d", i)
		writes = append(writes, usOf(timed(tr, "db.write", root, func() {
			db.AddRoleFact("takesCourse", subject, "Univ0_Dept0_Course3")
		})))
		finals = append(finals, msOf(timed(tr, "db.finalize", root, db.Finalize)))
	}
	tr.end(root)
	t.add("db.generate_ms", msOf(generate))
	t.add("db.write_us", median(writes))
	t.add("db.finalize_ms", median(finals))
}

// roundMetrics turns one round's samples into the per-layer metrics:
// the mean over the classes that enter the layer, and the ratios of
// sums where a share is asked for.
func roundMetrics(t tally) map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, spec := range perLayerMetrics {
		m[spec.Name] = mean(t[spec.Name])
	}
	m["cost.estimate_share"] = ratio(t.sum("cost.estimate_total_ms"), t.sum("cost.search_total_ms"))
	m["engine.estimate_share"] = ratio(t.sum("engine.estimate_total_ms"), t.sum("engine.search_total_ms"))
	m["engine.rows_per_result"] = ratio(t.sum("engine.rows_examined"), t.sum("engine.rows_out"))
	m["shard.cache_hit_ratio"] = ratio(t.sum("shard.cache_hits"), t.sum("shard.cache_lookups"))
	m["shard.speedup_vs_native"] = geomean(t["shard.speedup"])
	m["core.stage_sum_ratio"] = ratio(t.sum("staged.traced_ms"), t.sum("core.answer_cold_ms"))
	m["trace.overhead_share"] = ratio(t.sum("staged.traced_ms"), t.sum("staged.untraced_ms")) - 1
	return m
}

// runTraced produces the per-layer metrics of one workload: a replay
// of a fixed number of the workload's own operations with a span each
// (cache hit ratios, the front half's share), then rounds over the
// classes, every stage of each once cold and r.warm times warm, until
// the window has passed. Counts come out the same on every run.
func runTraced(w *workload, seed int64, seconds float64, warm int) (*runOutput, error) {
	in := makeInputs(w, seed)
	ref, err := referenceFor(w, in, seed)
	if err != nil {
		return nil, err
	}
	e, err := setup(w, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if !w.HTTP {
		if err := e.serve(); err != nil {
			return nil, err
		}
	}
	tr := newTracer()
	begun := time.Now()

	cs := newClients(e, in, seed)
	replay := runLoop(e, ref, cs, 0, w.replayOps(), tr)
	closeClients(cs)

	r := &tracedRun{e: e, ref: ref, in: in, tr: tr, warm: warm, attempted: replay.attempted, failed: replay.failed}
	r.client = &httpExec{e: e, client: &http.Client{}}
	defer r.client.close()
	if r.native, err = core.NewBackendByName("native", e.db, e.prof, 0); err != nil {
		return nil, err
	}
	if r.sql, err = core.NewBackendByName("sql", e.db, e.prof, 0); err != nil {
		return nil, err
	}
	buildMs := msOf(e.build)
	if r.shard = e.backend; !w.Shard {
		id := tr.start("shard.build", -1, r.opID())
		t0 := time.Now()
		r.shard, err = core.NewBackendByName("shard", e.db, e.prof, P)
		buildMs = msOf(time.Since(t0))
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}

	var rounds []map[string]float64
	for len(rounds) == 0 || time.Since(begun).Seconds() < seconds {
		t := tally{}
		if err := r.probeQueries(t); err != nil {
			return nil, err
		}
		for ci := range w.Classes {
			if err := r.stageClass(ci, t); err != nil {
				return nil, err
			}
		}
		probeDB(w, seed, tr, t)
		rounds = append(rounds, roundMetrics(t))
	}

	out := &runOutput{Workload: w.Name, Seed: seed, Trace: true, Seconds: time.Since(begun).Seconds(),
		Attempted: r.attempted, Failed: r.failed, Completed: r.attempted - r.failed,
		Metrics: make(map[string]float64), spans: tr.snapshot()}
	for _, spec := range perLayerMetrics {
		var v []float64
		for _, m := range rounds {
			v = append(v, m[spec.Name])
		}
		out.Metrics[spec.Name] = median(v)
	}
	out.Metrics["shard.build_ms"] = buildMs

	var lat, eval, latS, evalS time.Duration
	hits := 0
	for _, s := range replay.reads {
		lat, eval = lat+s.lat, eval+s.eval
		if w.Classes[s.class].searches() {
			latS, evalS = latS+s.lat, evalS+s.eval
		}
		if s.hit {
			hits++
		}
	}
	out.Metrics["core.front_share"] = 1 - ratio(float64(eval), float64(lat))
	out.Metrics["core.front_share_search"] = 1 - ratio(float64(evalS), float64(latS))
	out.Metrics["core.cache_hit_ratio"] = ratio(float64(hits), float64(len(replay.reads)))
	return out, nil
}

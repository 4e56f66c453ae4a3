package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lubm"
	"repro/internal/query"
)

// class is one (query, strategy) pair of a workload. Latency is kept
// per class so lat_geomean_ms can weigh every class equally.
type class struct {
	Name     string        // unique in the workload: "Q9/gdl-ext", "T1", "W"
	Query    string        // query name, the tail of the reference key
	Text     string        // parseable CQ text; templates carry one %s for the constant
	Strategy core.Strategy // "" = the server's default (zipf_serve)
	Slot     string        // templates: the predicate position whose individuals fill %s
	Head     string        // templates: head variables, to build the lifted reference query
	Every    int           // dealt in one round out of this many (0 = every round); see rarely
}

func (c class) template() bool { return c.Slot != "" }

// strategy resolves the server's default.
func (c class) strategy() core.Strategy {
	if c.Strategy == "" {
		return core.StrategyGDLExt
	}
	return c.Strategy
}

// searches reports whether the class runs a cost-based cover search.
func (c class) searches() bool {
	switch c.strategy() {
	case core.StrategyGDLExt, core.StrategyGDLRDBMS, core.StrategyEDL:
		return true
	}
	return false
}

// workload is one named traffic mix. The names are final: later issues
// refer to them.
type workload struct {
	Name string
	Why  string
	Univ int // LUBM scale (universities)

	Cold       bool // drop every plan cache before each op, so each op pays the whole front half
	Prewarm    bool // answer every class once during set-up, so each measured op is a cache hit
	Shard      bool // execute on the shard backend with P shards and P workers, result LRU purged per op
	HTTP       bool // P closed-loop clients through POST /query instead of one library caller
	WriteEvery int  // every n-th op is a write followed by a read-your-writes probe (0 = read-only)

	Classes []class
	// ReplayRounds sizes the traced run's replay: that many passes over
	// the classes (HTTP: times 200 requests), a fixed op count so the
	// counts it yields repeat exactly.
	ReplayRounds int
}

// Sizing, measured on a 2-core box with go1.24 (see README.md): the
// windows are sized so every run completes at least 1,100 operations.
const (
	univCold  = 5
	univExec  = 32
	univServe = 20
)

var fixedStrategies = []core.Strategy{core.StrategyUCQ, core.StrategyUSCQ, core.StrategyCroot, core.StrategyGDLExt, core.StrategyGDLRDBMS}

// cqText renders a CQ in the syntax query.ParseCQ accepts.
func cqText(q query.CQ) string {
	head := make([]string, len(q.Head))
	for i, h := range q.Head {
		head[i] = h.String()
	}
	atoms := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = a.String()
	}
	return fmt.Sprintf("%s(%s) <- %s", q.Name, strings.Join(head, ", "), strings.Join(atoms, ", "))
}

func fixedClass(q query.CQ, s core.Strategy) class {
	return class{Name: q.Name + "/" + string(s), Query: q.Name, Text: cqText(q), Strategy: s}
}

// quadraticCroot lists the queries whose root cover joins two
// unselective fragments: 157 ms (Q8) and 51 ms (Q10) of pure execution
// at 5 universities, seconds at 20. They would own every percentile of
// any workload, so no workload runs them under croot.
var quadraticCroot = map[string]bool{"Q8": true, "Q10": true}

func coldClasses() []class {
	qs := append(lubm.Queries(), lubm.StarQueries()[:3]...) // Q1–Q13, A3–A5
	var out []class
	for _, q := range qs {
		for _, s := range fixedStrategies {
			if s == core.StrategyCroot && quadraticCroot[q.Name] {
				continue
			}
			out = append(out, fixedClass(q, s))
		}
		// Exhaustive search is 0.8–2.8 s per query from five atoms up.
		if q.Name == "A3" || q.Name == "A4" {
			out = append(out, fixedClass(q, core.StrategyEDL))
		}
	}
	return out
}

// shuffleQuery joins memberOf on its second column with Department on
// its first: no first-column partitioning aligns it, so the shard
// backend must repartition through its exchange.
const shuffleQuery = "QS(x, d) <- memberOf(x, d), Department(d)"

// rarely deals a workload's heaviest class in one round out of every,
// so that it is about 2 % of the reads and lat_p99_ms lies in the body
// of its latencies, not in their upper tail. There p99 followed the
// host's jitter, not the program: runs of the same code spread 15-19 %
// on update_churn and 12 % on shard_exec (README).
func rarely(c class, every int) class {
	c.Every = every
	return c
}

func execClasses() []class {
	var out []class
	for _, q := range lubm.Queries() {
		u, g := fixedClass(q, core.StrategyUCQ), fixedClass(q, core.StrategyGDLExt)
		if q.Name == "Q8" { // 55 ms, four times the next class
			u, g = rarely(u, 4), rarely(g, 4)
		}
		out = append(out, u, g)
	}
	return append(out, class{Name: "QS/croot", Query: "QS", Text: shuffleQuery, Strategy: core.StrategyCroot})
}

func serveClasses() []class {
	out := []class{
		{Name: "T1", Head: "x", Text: "T1(x) <- takesCourse(x, '%s')", Slot: "course"},
		{Name: "T2", Head: "x, c", Text: "T2(x, c) <- advisedBy(x, '%s'), takesCourse(x, c)", Slot: "advisor"},
		{Name: "T3", Head: "y", Text: "T3(y) <- Person('%s'), memberOf('%s', y)", Slot: "member"},
		{Name: "T4", Head: "x", Text: "T4(x) <- Faculty(x), worksFor(x, '%s')", Slot: "employer"},
		{Name: "T5", Head: "x, p", Text: "T5(x, p) <- authorOf(x, p), Article(p), worksFor(x, '%s')", Slot: "employer"},
		{Name: "T6", Head: "s", Text: "T6(s) <- Student(s), takesCourse(s, c), teacherOf('%s', c)", Slot: "teacher"},
	}
	for i := range out {
		out[i].Query = out[i].Name
	}
	qs := lubm.Queries()
	for _, i := range []int{1, 2, 10} { // Q2, Q3, Q11: the large JSON responses
		q := qs[i]
		out = append(out, class{Name: q.Name, Query: q.Name, Text: cqText(q)})
	}
	return out
}

// serveTemplates is how many leading classes of serveClasses are
// one-constant templates.
const serveTemplates = 6

func churnClasses() []class {
	qs := lubm.Queries()
	var out []class
	for _, i := range []int{1, 2, 4, 8, 10} { // Q2, Q3, Q5, Q9, Q11
		c := fixedClass(qs[i], core.StrategyGDLExt)
		if qs[i].Name == "Q9" { // 14 ms re-planned, twice the next class
			c = rarely(c, 8)
		}
		out = append(out, c)
	}
	return append(out, class{Name: "W", Query: "W", Head: "x", Text: "W(x) <- takesCourse(x, '%s')",
		Strategy: core.StrategyGDLExt, Slot: "course"})
}

// workloads returns the five workloads. short shrinks every database
// to one university (the go test smoke).
func workloads(short bool) []*workload {
	ws := []*workload{
		{Name: "cold_plan", Univ: univCold, Cold: true, Classes: coldClasses(), ReplayRounds: 2,
			Why: "every plan cache dropped before each op, so parse-to-compile is 70-95% of a search-strategy op: planner changes show, executor changes barely do"},
		{Name: "warm_exec", Univ: univExec, Prewarm: true, Classes: execClasses(), ReplayRounds: 2,
			Why: "every op is an answer-cache hit on a large database, so op time is execution and decoding: operator changes show, planner changes must not"},
		{Name: "shard_exec", Univ: univExec, Prewarm: true, Shard: true, Classes: execClasses(), ReplayRounds: 2,
			Why: "the classes of warm_exec on the shard backend with its result cache purged per op: the multi-core measurement that decides whether the backend stays"},
		{Name: "zipf_serve", Univ: univServe, HTTP: true, Classes: serveClasses(), ReplayRounds: 5,
			Why: "concurrent HTTP clients, Zipf-drawn constants over thousands of distinct queries against a 256-entry cache: the server layer, cache misses and lock contention"},
		{Name: "update_churn", Univ: univServe, WriteEvery: 8, Classes: churnClasses(), ReplayRounds: 6,
			Why: "every 8th op is a write that strands all cached plans, then a read-your-writes probe: a cache that makes invalidation dearer or serves stale rows shows here"},
	}
	if short {
		for _, w := range ws {
			w.Univ = 1
			w.ReplayRounds = 1
		}
	}
	return ws
}

func workloadByName(name string, short bool) *workload {
	for _, w := range workloads(short) {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// replayOps is the traced run's fixed replay length.
func (w *workload) replayOps() int {
	n := w.ReplayRounds * len(w.Classes)
	if w.HTTP {
		n *= 200
	}
	if w.WriteEvery > 0 {
		n *= w.WriteEvery // whole write cycles
	}
	return n
}

// refKey names the reference answer of a fixed class, or of one
// instance of a template.
func (w *workload) refKey(c class, constant string) string {
	if c.template() {
		return fmt.Sprintf("u%d/%s/%s", w.Univ, c.Query, constant)
	}
	return fmt.Sprintf("u%d/%s", w.Univ, c.Query)
}

// probe reports whether c is the read-your-writes probe, whose answer
// grows with the writes and so has no fixed reference.
func (w *workload) probe(c class) bool { return c.template() && w.WriteEvery > 0 }

// fill returns the query text of a class (a template's with its
// constant filled in) and the key of its reference answer, "" for the
// probe.
func (w *workload) fill(c class, constant string) (text, key string) {
	if w.probe(c) {
		return strings.ReplaceAll(c.Text, "%s", constant), ""
	}
	return strings.ReplaceAll(c.Text, "%s", constant), w.refKey(c, constant)
}

// inputs are what the load generator draws from besides the class
// list: per template slot, the individuals that may fill the constant,
// in Zipf rank order (rank 0 is the hottest).
type inputs struct {
	slots map[string][]string
}

// slotCollector is a lubm.Sink that only remembers which individuals
// occur in the positions the templates put a constant in.
type slotCollector struct {
	sets map[string]map[string]bool
}

func (s *slotCollector) add(slot, ind string) {
	if s.sets[slot] == nil {
		s.sets[slot] = make(map[string]bool)
	}
	s.sets[slot][ind] = true
}

func (s *slotCollector) AddConceptFact(string, string) {}

func (s *slotCollector) AddRoleFact(role, sub, obj string) {
	switch role {
	case "takesCourse":
		s.add("course", obj)
	case "advisedBy":
		s.add("advisor", obj)
	case "memberOf":
		s.add("member", sub)
	case "worksFor":
		s.add("employer", obj)
	case "teacherOf":
		s.add("teacher", sub)
	}
}

// makeInputs derives the template slots from the generated data. The
// rank order is a seeded shuffle, so the hot keys differ by seed.
func makeInputs(w *workload, seed int64) *inputs {
	in := &inputs{slots: make(map[string][]string)}
	needed := false
	for _, c := range w.Classes {
		needed = needed || c.template()
	}
	if !needed {
		return in
	}
	col := &slotCollector{sets: make(map[string]map[string]bool)}
	lubm.Generate(lubm.Config{Universities: w.Univ, Seed: seed}, col)
	rng := rand.New(rand.NewSource(seed ^ 0x5107))
	names := make([]string, 0, len(col.sets))
	for name := range col.sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		inds := make([]string, 0, len(col.sets[name]))
		for ind := range col.sets[name] {
			inds = append(inds, ind)
		}
		sort.Strings(inds)
		rng.Shuffle(len(inds), func(i, j int) { inds[i], inds[j] = inds[j], inds[i] })
		in.slots[name] = inds
	}
	return in
}

// op is one generated operation: a read (Class >= 0) or a write
// (Class < 0) of takesCourse(Subject, Object).
type op struct {
	Class  int
	Text   string // reads: the query text sent to the system
	RefKey string // reads: the reference answer to compare with ("" = none)
	Want   string // probes: the individual the answer must contain

	Subject, Object string // writes
}

func (o op) write() bool { return o.Class < 0 }

// opStream generates one client's operations. The same (workload,
// inputs, seed, client) always yields the same sequence.
type opStream struct {
	w     *workload
	in    *inputs
	rng   *rand.Rand
	zipf  map[string]*rand.Zipf
	n     int   // ops generated so far
	round int   // rounds dealt so far
	order []int // the current round's class order
	last  op    // the previous op, for the probe after a write
}

// zipfS is the Zipf exponent of the template constants.
const zipfS = 1.1

func newOpStream(w *workload, in *inputs, seed int64, client int) *opStream {
	s := &opStream{w: w, in: in, zipf: make(map[string]*rand.Zipf)}
	s.rng = rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + int64(len(w.Name))))
	if w.HTTP {
		for slot, inds := range in.slots {
			s.zipf[slot] = rand.NewZipf(s.rng, zipfS, 1, uint64(len(inds)-1))
		}
	}
	return s
}

// read is the op that sends class ci, a template with its constant
// filled in.
func (s *opStream) read(ci int, constant string) op {
	text, key := s.w.fill(s.w.Classes[ci], constant)
	return op{Class: ci, Text: text, RefKey: key}
}

// nextFixed deals the fixed classes out in seeded-shuffle rounds, so
// every class gets the same share of the window, or an Every-th of it.
func (s *opStream) nextFixed(classes int) op {
	if len(s.order) == 0 {
		for _, ci := range s.rng.Perm(classes) {
			if every := s.w.Classes[ci].Every; every <= 1 || s.round%every == 0 {
				s.order = append(s.order, ci)
			}
		}
		s.round++
	}
	ci := s.order[0]
	s.order = s.order[1:]
	return s.read(ci, "")
}

func (s *opStream) next() op {
	w := s.w
	var o op
	switch {
	case w.HTTP:
		if s.rng.Float64() < 0.05 {
			o = s.read(serveTemplates+s.rng.Intn(len(w.Classes)-serveTemplates), "")
		} else {
			ci := s.rng.Intn(serveTemplates)
			slot := w.Classes[ci].Slot
			o = s.read(ci, s.in.slots[slot][s.zipf[slot].Uint64()])
		}
	case w.WriteEvery > 0 && s.n%w.WriteEvery == w.WriteEvery-1:
		courses := s.in.slots["course"]
		o = op{Class: -1, Subject: fmt.Sprintf("bench_stud_%d", s.n/w.WriteEvery), Object: courses[s.rng.Intn(len(courses))]}
	case s.last.write():
		o = s.read(len(w.Classes)-1, s.last.Object)
		o.Want = s.last.Subject
	case w.WriteEvery > 0:
		o = s.nextFixed(len(w.Classes) - 1) // the probe class is not dealt
	default:
		o = s.nextFixed(len(w.Classes))
	}
	s.n++
	s.last = o
	return o
}

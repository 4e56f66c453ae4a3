package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/query"
)

// opList renders the first n operations of every client of w.
func opList(w *workload, seed int64, clients, n int) string {
	in := makeInputs(w, seed)
	var b strings.Builder
	for c := range clients {
		s := newOpStream(w, in, seed, c)
		for range n {
			fmt.Fprintf(&b, "%+v\n", s.next())
		}
	}
	return b.String()
}

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads(false) {
		a, b, c := opList(w, 7, 2, 500), opList(w, 7, 2, 500), opList(w, 8, 2, 500)
		if a != b {
			t.Errorf("%s: the same seed gave two different op lists", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.Name)
		}
	}
}

func TestChurnWritesThenProbes(t *testing.T) {
	w := workloadByName("update_churn", false)
	s := newOpStream(w, makeInputs(w, 1), 1, 0)
	for i := range 64 {
		o := s.next()
		switch {
		case i%8 == 7:
			if !o.write() || o.Subject != fmt.Sprintf("bench_stud_%d", i/8) {
				t.Fatalf("op %d: want write of a new student, got %+v", i, o)
			}
		case i%8 == 0 && i > 0:
			if !strings.Contains(o.Text, "takesCourse(x, '") || o.Want != fmt.Sprintf("bench_stud_%d", i/8-1) {
				t.Fatalf("op %d: want probe for the student just written, got %+v", i, o)
			}
		default:
			if o.write() || o.Want != "" || o.RefKey == "" {
				t.Fatalf("op %d: want a checked read, got %+v", i, o)
			}
		}
	}
}

// A rare class is dealt in one round out of Every, in the first round
// too, and the others in every round.
func TestRareClassesAreDealtOneRoundInEvery(t *testing.T) {
	for _, name := range []string{"warm_exec", "update_churn"} {
		w := workloadByName(name, false)
		s := newOpStream(w, makeInputs(w, 1), 1, 0)
		fixed := len(w.Classes)
		if w.WriteEvery > 0 {
			fixed-- // the probe is not dealt
		}
		const rounds = 64
		perRound, got := 0, make([]int, len(w.Classes))
		for _, c := range w.Classes[:fixed] {
			perRound += rounds / max(c.Every, 1)
		}
		for n := 0; n < perRound; {
			if o := s.next(); !o.write() && o.Want == "" {
				got[o.Class]++
				n++
			}
		}
		for ci, c := range w.Classes[:fixed] {
			if want := rounds / max(c.Every, 1); got[ci] != want {
				t.Errorf("%s: %s dealt %d times in %d rounds, want %d", name, c.Name, got[ci], rounds, want)
			}
		}
	}
}

// The working set of zipf_serve must exceed the 256-entry answer cache
// by a wide margin.
func TestZipfStreamHasManyDistinctQueries(t *testing.T) {
	w := workloadByName("zipf_serve", false)
	in := makeInputs(w, 1)
	distinct := map[string]bool{}
	for c := range 2 {
		s := newOpStream(w, in, 1, c)
		for range 25000 {
			q, err := query.ParseCQ(s.next().Text)
			if err != nil {
				t.Fatal(err)
			}
			distinct[query.CanonicalKey(q)] = true
		}
	}
	if len(distinct) < 2000 {
		t.Errorf("50,000 ops hold %d distinct canonical queries, want >= 2000", len(distinct))
	}
}

func TestPercentileMedianGeomean(t *testing.T) {
	v := make([]float64, 1100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if p, beyond := percentile(v, 99); p != 1089 || beyond != 11 {
		t.Errorf("p99 of 1..1100 = %v with %d beyond, want 1089 with 11", p, beyond)
	}
	if p, _ := percentile(v, 50); p != 550 {
		t.Errorf("p50 of 1..1100 = %v, want 550", p)
	}
	if m := median([]float64{9, 1, 5, 3}); m != 4 {
		t.Errorf("median = %v, want 4", m)
	}
	if g := geomean([]float64{1, 10, 100}); math.Abs(g-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", g)
	}
	if r := ratio(1, 0); r != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", r)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 50 - 10, 1: 25, 2: 30, 3: 30, 4: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := selfByName(spans)["a"]; got != 25e-6 {
		t.Errorf("self ms of a = %v, want 25e-6", got)
	}
}

func TestReferenceCheck(t *testing.T) {
	rows := [][]string{{"a", "b"}, {"c", "d"}}
	swapped := [][]string{{"c", "d"}, {"a", "b"}}
	if digest(rows) != digest(swapped) {
		t.Error("digest depends on row order")
	}
	ref := reference{"u1/Q": digest(rows)}
	for _, bad := range [][][]string{{{"a", "b"}}, {{"a", "b"}, {"c", "e"}}, {{"a", "b"}, {"c", "d"}, {"c", "d"}}, {{"ab", ""}, {"c", "d"}}} {
		if ref.check(op{RefKey: "u1/Q"}, bad) {
			t.Errorf("check accepted %v", bad)
		}
	}
	if !ref.check(op{RefKey: "u1/Q"}, swapped) {
		t.Error("check rejected the reference answer")
	}
	if ref.check(op{RefKey: "u1/missing"}, nil) {
		t.Error("check accepted a fixed query that has no reference")
	}
	probe := op{Want: "s1"}
	if !ref.check(probe, [][]string{{"s0"}, {"s1"}}) || ref.check(probe, [][]string{{"s0"}}) {
		t.Error("the probe must find the written individual, and only then pass")
	}
}

func TestLiftedText(t *testing.T) {
	c := serveClasses()[2]
	got := liftedText(c)
	want := "T3(k0, y) <- Person(k0), memberOf(k0, y)"
	if got != want {
		t.Errorf("lifted = %q, want %q", got, want)
	}
	if _, err := query.ParseCQ(got); err != nil {
		t.Error(err)
	}
}

func TestGoldensCoverTheFixedClasses(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		gold := golden(seed)
		for _, w := range workloads(false) {
			for _, c := range w.Classes {
				if _, ok := gold[w.refKey(c, "")]; !ok && !c.template() {
					t.Errorf("golden/seed-%d.json lacks %s; run -regen", seed, w.refKey(c, ""))
				}
			}
		}
	}
}

// BENCHMARK.json is written by hand; the tables here are what the
// program prints.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	var b struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n%v\n%v", b.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs:\n%v\n%v", b.PerLayer, perLayerMetrics)
	}
	ws := workloads(false)
	if len(b.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
}

// The smoke keeps the harness compiling and running against the public
// APIs it times: every workload, untraced and traced, at one
// university, every answer checked.
func TestShortSmoke(t *testing.T) {
	rec, err := all(1, 1, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rec.Runs {
		if o.Failed > 0 || o.Attempted == 0 {
			t.Errorf("%s (traced=%v): %d of %d operations failed", o.Workload, o.Trace, o.Failed, o.Attempted)
		}
		for _, s := range specsFor(o.Trace) {
			if v, ok := o.Metrics[s.Name]; !ok || math.IsNaN(v) || (!o.Trace && v <= 0) {
				t.Errorf("%s: metric %s = %v (present: %v)", o.Workload, s.Name, v, ok)
			}
		}
		if o.Trace && (o.Metrics["core.stage_sum_ratio"] < 0.5 || o.Metrics["core.stage_sum_ratio"] > 2) {
			t.Errorf("%s: staged spans sum to %.2f of one AnswerWith", o.Workload, o.Metrics["core.stage_sum_ratio"])
		}
	}
}

func TestTracedCountsRepeatExactly(t *testing.T) {
	w := workloadByName("warm_exec", true)
	a, err := runTraced(w, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTraced(w, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range exactCounts {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
	if a.Metrics["search.covers_explored"] == 0 || a.Metrics["plan.nodes"] == 0 || a.Metrics["engine.rows_examined"] == 0 {
		t.Errorf("counts are zero: %v", a.Metrics)
	}
}

// shard_exec carries QS so that the shard backend's exchange is
// measured; if the backend stops taking that path the class no longer
// serves its purpose.
func TestShuffleQueryTakesTheExchange(t *testing.T) {
	w := workloadByName("shard_exec", true)
	e, err := setup(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.purge() // as before every measured op: execute, do not replay
	res, err := e.a.AnswerWith(query.MustParseCQ(shuffleQuery), w.Classes[len(w.Classes)-1].Strategy, e.backend)
	if err != nil {
		t.Fatal(err)
	}
	if rowsMoved(res.Explain) == 0 {
		t.Errorf("QS moved no rows through an exchange: %s", res.Explain.Root.Detail)
	}
}

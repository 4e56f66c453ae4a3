package shard

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// shuffleCover is the canonical non-first-position cover: worksFor
// binds the join key y in object position, Company in subject
// position, so no single partition variable aligns both fragments —
// the exchange must repartition the worksFor stream on y.
func shuffleCover() *plan.Node {
	return plan.FromJUCQ(query.JUCQ{Name: "q",
		Head: query.MustParseCQ("q(x, y) <- worksFor(x, y)").Head,
		Subs: []query.UCQ{
			ucq("q1(x, y) <- worksFor(x, y)"),
			ucq("q2(y) <- Company(y)"),
		}})
}

// skewABox concentrates almost every worksFor row on one company, so
// the exchange routes nearly the whole stream to a single shard.
func skewABox() string {
	var b strings.Builder
	b.WriteString(testABox)
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "worksFor(extra%d, acme)\n", i)
	}
	return b.String()
}

func TestAnalyzeExchange(t *testing.T) {
	db := loadDB(t, testABox)
	st := db.Stats()
	cover := shuffleCover()
	ex := analyzeExchange(cover, st, 3)
	if ex == nil || ex.key != "y" {
		t.Fatalf("exchange = %+v", ex)
	}
	if len(ex.frags) != 2 {
		t.Fatalf("fragments = %+v", ex.frags)
	}
	f0, f1 := ex.frags[0], ex.frags[1]
	if f0.mode != fragShuffle || f0.scanVar != "x" || !f0.partitioned["worksFor"] {
		t.Fatalf("worksFor fragment = %+v", f0)
	}
	if f1.mode != fragLocal || f1.scanVar != "y" || !f1.partitioned["Company"] {
		t.Fatalf("Company fragment = %+v", f1)
	}
	if d := ex.describe(3); !strings.Contains(d, "exchange on y") ||
		!strings.Contains(d, "worksFor@x") || !strings.Contains(d, "local Company") {
		t.Fatalf("describe = %q", d)
	}

	// Below two shards there is nothing to repartition.
	if ex := analyzeExchange(cover, st, 1); ex != nil {
		t.Fatalf("single shard must not exchange, got %+v", ex)
	}
	// A single fragment has no cover join to repartition for.
	if ex := analyzeExchange(plan.FromUCQ(ucq("q(x, y) <- worksFor(x, y)")), st, 3); ex != nil {
		t.Fatalf("single fragment must not exchange, got %+v", ex)
	}
	// A fully co-partitioned cover needs no shuffle fragment at all.
	aligned := plan.FromJUCQ(query.JUCQ{Name: "q",
		Head: query.MustParseCQ("q(x) <- Employee(x)").Head,
		Subs: []query.UCQ{ucq("q1(x) <- Employee(x)"), ucq("q2(x) <- Manager(x)")}})
	if ex := analyzeExchange(aligned, st, 3); ex != nil {
		t.Fatalf("aligned cover must not exchange, got %+v", ex)
	}
	// A fragment whose scans never align (constant first position)
	// broadcasts inside an otherwise-shuffled plan.
	bex := analyzeExchange(plan.FromJUCQ(query.JUCQ{Name: "q",
		Head: query.MustParseCQ("q(x, y) <- worksFor(x, y)").Head,
		Subs: []query.UCQ{
			ucq("q1(x, y) <- worksFor(x, y)"),
			ucq("q2(y) <- locatedIn('acme', y)"),
		}}), st, 3)
	if bex == nil || bex.frags[1].mode != fragBroadcast {
		t.Fatalf("constant-rooted fragment must broadcast, got %+v", bex)
	}
}

// exchangeDiffQueries are covers that exercise the shuffle path:
// the plain shuffle join, the skewed variant (same plan, hot data),
// and a cover with a broadcast fragment riding along.
func exchangeDiffQueries() []*plan.Node {
	return []*plan.Node{
		shuffleCover(),
		plan.FromJUCQ(query.JUCQ{Name: "q",
			Head: query.MustParseCQ("q(x, y) <- worksFor(x, y)").Head,
			Subs: []query.UCQ{
				ucq("q1(x, y) <- worksFor(x, y)"),
				ucq("q2(y) <- Company(y)", "q2(y) <- locatedIn(y, z)"),
			}}),
		plan.FromJUCQ(query.JUCQ{Name: "q",
			Head: query.MustParseCQ("q(x, y) <- worksFor(x, y)").Head,
			Subs: []query.UCQ{
				ucq("q1(x, y) <- worksFor(x, y)"),
				ucq("q2(y) <- locatedIn('acme', y)"),
			}}),
	}
}

// TestExchangeDifferential runs the shuffle covers against the native
// backend on the full data, the hot-key skew, and the empty ABox, at
// 1/2/7 shards (run under -race in CI).
func TestExchangeDifferential(t *testing.T) {
	for _, abox := range []string{testABox, skewABox(), ""} {
		db := loadDB(t, abox)
		prof := engine.ProfilePostgres()
		native := engine.NewBackend(db, prof)
		for _, shards := range []int{1, 2, 7} {
			sb, err := New(db, prof, shards)
			if err != nil {
				t.Fatal(err)
			}
			for qi, n := range exchangeDiffQueries() {
				want := sortTuples(runPlan(t, native, n, 4))
				got := sortTuples(runPlan(t, sb, n, 4))
				if len(want) != len(got) {
					t.Fatalf("q%d shards=%d abox=%d: native %d tuples, shard %d",
						qi, shards, len(abox), len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("q%d shards=%d: tuple %d differs: %q vs %q",
							qi, shards, i, want[i], got[i])
					}
				}
			}
		}
	}
}

// findExplain walks an explain tree collecting nodes by operator name.
func findExplain(n *plan.ExplainNode, op string, out *[]*plan.ExplainNode) {
	if n == nil {
		return
	}
	if n.Op == op {
		*out = append(*out, n)
	}
	for _, c := range n.Children {
		findExplain(c, op, out)
	}
}

// TestExchangeExplain asserts the EXPLAIN surface of the shuffle path:
// the merge root names the exchange and the rows moved, and every
// destination carries an exchange node with its per-shard delivery
// actuals.
func TestExchangeExplain(t *testing.T) {
	db := loadDB(t, testABox)
	sb, err := New(db, engine.ProfilePostgres(), 3)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sb.Compile(shuffleCover())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	root := res.Explain.Root
	if !strings.Contains(root.Detail, "exchange on y") ||
		!strings.Contains(root.Detail, "moved") {
		t.Fatalf("root detail = %q", root.Detail)
	}
	if len(root.Children) != 3 {
		t.Fatalf("destinations = %d", len(root.Children))
	}
	var exNodes []*plan.ExplainNode
	findExplain(root, "exchange", &exNodes)
	if len(exNodes) != 3 {
		t.Fatalf("exchange nodes = %d, want one per destination", len(exNodes))
	}
	var delivered int64
	for _, en := range exNodes {
		if !strings.Contains(en.Detail, "on y") || !strings.Contains(en.Detail, "sent=") ||
			!strings.Contains(en.Detail, "recv=") {
			t.Fatalf("exchange detail = %q", en.Detail)
		}
		delivered += en.ActualRows
	}
	// Every worksFor row is delivered to exactly one destination.
	if delivered != 5 {
		t.Fatalf("delivered actuals sum to %d, want 5", delivered)
	}
	if res.Explain.Text() == "" {
		t.Fatal("explain text empty")
	}
}

// TestSevenShardsTwoProcs is the regression for the worker split
// rounding to zero: seven shards on a two-core budget must still hand
// every shard pipeline at least one worker.
func TestSevenShardsTwoProcs(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	db := loadDB(t, testABox)
	prof := engine.ProfilePostgres()
	native := engine.NewBackend(db, prof)
	sb, err := New(db, prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	for qi, n := range []*plan.Node{
		shuffleCover(),
		plan.FromUCQ(ucq("q(x, y) <- worksFor(x, y), Manager(x)")),
	} {
		want := sortTuples(runPlan(t, native, n, 2))
		got := sortTuples(runPlan(t, sb, n, 2))
		if len(want) != len(got) {
			t.Fatalf("q%d: native %d tuples, shard %d", qi, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("q%d: tuple %d differs: %q vs %q", qi, i, want[i], got[i])
			}
		}
	}
}

func TestPerShardWorkersFloorsAtOne(t *testing.T) {
	for _, c := range []struct{ workers, n, want int }{
		{2, 7, 1}, {0, 3, 1}, {8, 2, 4}, {7, 2, 3}, {1, 1, 1},
	} {
		if got := perShardWorkers(c.workers, c.n); got != c.want {
			t.Fatalf("perShardWorkers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

// TestShardResultCache runs the same plans twice on an unchanged
// database: the second run must replay every shard from the result
// cache (visible in EXPLAIN and the backend counters), and PurgeCache
// must force the third run back to live execution.
func TestShardResultCache(t *testing.T) {
	db := loadDB(t, testABox)
	sb, err := New(db, engine.ProfilePostgres(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]*plan.Node{
		"aligned":  plan.FromUCQ(ucq("q(x) <- Employee(x), worksFor(x, y)")),
		"exchange": shuffleCover(),
	} {
		sb.PurgeCache()
		ex, err := sb.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		first, err := ex.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(first.Explain.Root.Detail, "shard-cache 0/3 hits") {
			t.Fatalf("%s first run detail = %q", name, first.Explain.Root.Detail)
		}
		// Same plan, unchanged data: compile is served by the plan cache
		// and every shard replays from the result cache.
		ex2, err := sb.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		second, err := ex2.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(second.Explain.Root.Detail, "shard-cache 3/3 hits") {
			t.Fatalf("%s second run detail = %q", name, second.Explain.Root.Detail)
		}
		if sortTuples(first.Tuples)[0] != sortTuples(second.Tuples)[0] ||
			len(first.Tuples) != len(second.Tuples) {
			t.Fatalf("%s cached tuples differ", name)
		}
		var cacheHits []*plan.ExplainNode
		findExplain(second.Explain.Root, "shard", &cacheHits)
		for _, sn := range cacheHits {
			if !strings.Contains(sn.Detail, "(cache hit)") {
				t.Fatalf("%s shard detail = %q", name, sn.Detail)
			}
		}
		if h, _ := sb.CacheStats(); h == 0 {
			t.Fatalf("%s: no cache hits recorded", name)
		}
		sb.PurgeCache()
		ex3, err := sb.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		third, err := ex3.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(third.Explain.Root.Detail, "shard-cache 0/3 hits") {
			t.Fatalf("%s post-purge detail = %q", name, third.Explain.Root.Detail)
		}
	}
}

package shard

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

const testABox = `
worksFor(ann, acme)
worksFor(bob, acme)
worksFor(cat, initech)
worksFor(dan, initech)
worksFor(eve, hooli)
Employee(ann)
Employee(bob)
Employee(cat)
Employee(dan)
Employee(eve)
Manager(ann)
Manager(cat)
Company(acme)
Company(initech)
Company(hooli)
locatedIn(acme, paris)
locatedIn(initech, lyon)
`

func loadDB(t *testing.T, text string) *engine.DB {
	t.Helper()
	db := engine.NewDB(engine.LayoutSimple)
	if text != "" {
		db.LoadABox(dllite.MustParseABox(text))
	}
	db.Finalize()
	return db
}

func ucq(cqs ...string) query.UCQ {
	u := query.UCQ{Name: "q"}
	for _, s := range cqs {
		u.Disjuncts = append(u.Disjuncts, query.MustParseCQ(s))
	}
	return u
}

func sortTuples(ts [][]string) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = strings.Join(t, "\x00")
	}
	sort.Strings(out)
	return out
}

func runPlan(t *testing.T, b plan.Backend, n *plan.Node, workers int) [][]string {
	t.Helper()
	ex, err := b.Compile(n)
	if err != nil {
		t.Fatalf("%s compile: %v", b.Name(), err)
	}
	res, err := ex.Run(workers)
	if err != nil {
		t.Fatalf("%s run: %v", b.Name(), err)
	}
	return res.Tuples
}

func TestPartitionPreservesFacts(t *testing.T) {
	db := loadDB(t, testABox)
	p, err := engine.Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < p.NumShards(); i++ {
		total += p.Shard(i).NumFacts()
	}
	if total != db.NumFacts() {
		t.Fatalf("shards hold %d facts, base holds %d", total, db.NumFacts())
	}
	if _, err := engine.Partition(db, 0); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	rdf := engine.NewDB(engine.LayoutRDF)
	rdf.Finalize()
	if _, err := engine.Partition(rdf, 2); err == nil {
		t.Fatal("expected error for RDF layout")
	}
}

func TestAnalyzeAlignment(t *testing.T) {
	db := loadDB(t, testABox)
	st := db.Stats()

	mustAnalyze := func(n *plan.Node) analysis {
		t.Helper()
		an, err := analyze(n, st)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}

	// worksFor and Employee both bind x first; Company binds y.
	an := mustAnalyze(plan.FromUCQ(ucq("q(x) <- Employee(x), worksFor(x, y), Company(y)")))
	if an.partVar != "x" || !an.partitioned["Employee"] || !an.partitioned["worksFor"] {
		t.Fatalf("analysis = %+v", an)
	}
	if an.partitioned["Company"] || len(an.broadcast) != 1 || an.broadcast[0] != "Company" {
		t.Fatalf("Company must broadcast, analysis = %+v", an)
	}

	// A constant in first position forces the relation to broadcast
	// everywhere; with no other relation left the plan cannot align.
	if an := mustAnalyze(plan.FromUCQ(ucq("q(y) <- worksFor('ann', y), worksFor(x, y)"))); an.aligned() {
		t.Fatalf("constant first arg must kill alignment, got %+v", an)
	}

	// Cross-fragment: x is shared through both fragment heads — valid.
	j := query.JUCQ{Name: "q", Head: query.MustParseCQ("q(x) <- Employee(x)").Head,
		Subs: []query.UCQ{ucq("q1(x) <- worksFor(x, y)"), ucq("q2(x) <- Manager(x)")}}
	an = mustAnalyze(plan.FromJUCQ(j))
	if an.partVar != "x" || !an.partitioned["worksFor"] || !an.partitioned["Manager"] {
		t.Fatalf("cover analysis = %+v", an)
	}

	// A variable mentioned by two fragments but absent from a head is
	// not equated by the fragment join — it must not partition.
	j = query.JUCQ{Name: "q", Head: query.MustParseCQ("q(y) <- Company(y)").Head,
		Subs: []query.UCQ{ucq("q1(y) <- worksFor(x, y)"), ucq("q2(z) <- worksFor(x, z)")}}
	if an := mustAnalyze(plan.FromJUCQ(j)); an.partVar == "x" {
		t.Fatalf("x is not joined across fragments, got %+v", an)
	}

	// The rewritten tree — single-arm unions collapsed — aligns alike.
	if an := mustAnalyze(plan.Rewrite(plan.FromJUCQ(j))); an.partVar == "x" {
		t.Fatalf("rewritten cover: x is not joined across fragments, got %+v", an)
	}

	// A tree that is neither a cover nor a union of arms is rejected.
	if _, err := analyze(&plan.Node{Op: plan.OpJoin}, st); err == nil {
		t.Fatal("a bare join must not analyze")
	}
}

func diffQueries() []*plan.Node {
	return []*plan.Node{
		plan.FromUCQ(ucq("q(x) <- Employee(x)")),
		plan.FromUCQ(ucq("q(x, y) <- worksFor(x, y), Manager(x)")),
		plan.FromUCQ(ucq("q(x, z) <- worksFor(x, y), locatedIn(y, z)")),
		plan.FromUCQ(ucq(
			"q(x) <- Manager(x)",
			"q(x) <- worksFor(x, y), locatedIn(y, z)",
		)),
		plan.FromJUCQ(query.JUCQ{Name: "q",
			Head: query.MustParseCQ("q(x) <- Employee(x)").Head,
			Subs: []query.UCQ{
				ucq("q1(x) <- Employee(x)", "q1(x) <- Manager(x)"),
				ucq("q2(x) <- worksFor(x, y)"),
			}}),
		plan.FromUCQ(ucq("q(x) <- Unicorn(x)")),
	}
}

func TestShardMatchesNativeDifferential(t *testing.T) {
	for _, abox := range []string{testABox, ""} {
		db := loadDB(t, abox)
		prof := engine.ProfilePostgres()
		native := engine.NewBackend(db, prof)
		for _, shards := range []int{1, 2, 3, 7} {
			sb, err := New(db, prof, shards)
			if err != nil {
				t.Fatal(err)
			}
			for qi, n := range diffQueries() {
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

func TestShardEstimateSumsShards(t *testing.T) {
	db := loadDB(t, testABox)
	prof := engine.ProfilePostgres()
	n := plan.FromUCQ(ucq("q(x, y) <- worksFor(x, y), Manager(x)"))
	sb, err := New(db, prof, 4)
	if err != nil {
		t.Fatal(err)
	}
	est := sb.Estimate(n)
	if est.Cost <= 0 {
		t.Fatalf("estimate cost = %v", est.Cost)
	}
	ex, err := sb.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Estimate() != est {
		t.Fatalf("compile-time estimate %+v != Estimate %+v", ex.Estimate(), est)
	}
}

func TestShardExplainPerShardCounters(t *testing.T) {
	db := loadDB(t, testABox)
	sb, err := New(db, engine.ProfilePostgres(), 3)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.FromUCQ(ucq("q(x) <- Employee(x), worksFor(x, y)"))
	ex, err := sb.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	root := res.Explain.Root
	if root.Op != "shard-merge" || len(root.Children) != 3 {
		t.Fatalf("root = %s with %d children", root.Op, len(root.Children))
	}
	if root.ActualRows != int64(len(res.Tuples)) {
		t.Fatalf("root actual %d, tuples %d", root.ActualRows, len(res.Tuples))
	}
	var sum int64
	for i, c := range root.Children {
		if c.Op != "shard" || len(c.Children) != 1 {
			t.Fatalf("child %d = %+v", i, c)
		}
		if c.ActualRows < 0 {
			t.Fatalf("child %d actual rows unknown", i)
		}
		sum += c.ActualRows
	}
	// Employee and worksFor are co-partitioned on x: the shards
	// partition the five employees without duplication.
	if sum != int64(len(res.Tuples)) {
		t.Fatalf("per-shard actuals sum to %d, want %d", sum, len(res.Tuples))
	}
	if !strings.Contains(root.Detail, "shards on x") {
		t.Fatalf("detail = %q", root.Detail)
	}
}

func TestUnalignedPlanUsesSingleView(t *testing.T) {
	db := loadDB(t, testABox)
	sb, err := New(db, engine.ProfilePostgres(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Constant first argument: no alignment, single full evaluation.
	n := plan.FromUCQ(ucq("q(y) <- worksFor('ann', y)"))
	ex, err := sb.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explain.Root.Children) != 1 {
		t.Fatalf("unaligned plan ran on %d views", len(res.Explain.Root.Children))
	}
	if len(res.Tuples) != 1 || res.Tuples[0][0] != "acme" {
		t.Fatalf("tuples = %v", res.Tuples)
	}
}

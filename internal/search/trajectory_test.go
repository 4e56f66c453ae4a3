package search

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
)

func lubmDB() *engine.DB {
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 2, Seed: 1}, db)
	db.Finalize()
	return db
}

func trajectoryQueries() []query.CQ {
	return append(lubm.Queries(), lubm.StarQueries()[:3]...) // Q1–Q13, A3–A5
}

// goldenTrajectory was recorded at the commit before the search became
// fragment-granular (whole-tree lowering and estimation per candidate
// cover), on LUBM at 2 universities, seed 1, Postgres profile: the
// chosen cover, its cost to the last bit, and how the search got there.
var goldenTrajectory = []struct {
	query, search, cover string
	cost                 float64
	lq, gq, moves        int
}{
	{"Q1", "gdl-ext", "3f|3f", 819.1456715785175, 36, 36, 5},
	{"Q1", "gdl-rdbms", "3f|3f", 806.8749440645634, 36, 36, 5},
	{"Q2", "gdl-ext", "7|7;8|8", 2559.6, 2, 1, 0},
	{"Q2", "gdl-rdbms", "7|7;8|8", 2188.7, 2, 1, 0},
	{"Q3", "gdl-ext", "10|10;3|3;c|c", 2191.422765990398, 4, 4, 0},
	{"Q3", "gdl-rdbms", "10|10;f|f", 1691.880315936193, 5, 5, 1},
	{"Q4", "gdl-ext", "7|7", 941.9097071596402, 2, 1, 1},
	{"Q4", "gdl-rdbms", "7|7", 679.844122657581, 2, 1, 1},
	{"Q5", "gdl-ext", "3|3;7e|7c", 4095.7757009382244, 5, 23, 2},
	{"Q5", "gdl-rdbms", "3|3;7e|7c", 3723.6013122381414, 5, 23, 2},
	{"Q6", "gdl-ext", "1f|1f", 744.1706210314387, 11, 8, 3},
	{"Q6", "gdl-rdbms", "1f|1f", 735.6799597336226, 11, 8, 3},
	{"Q7", "gdl-ext", "3f|3f", 912.976820593412, 11, 12, 3},
	{"Q7", "gdl-rdbms", "3f|3f", 912.8276551531558, 11, 12, 3},
	{"Q8", "gdl-ext", "7f|7f", 175355.43503850646, 5, 5, 2},
	{"Q8", "gdl-rdbms", "7f|7f", 59340.839615216755, 5, 5, 2},
	{"Q9", "gdl-ext", "3b|3b;3c0|3c0;4|4", 3852.0388093400506, 10, 18, 1},
	{"Q9", "gdl-rdbms", "3ff|3ff", 0, 11, 18, 3},
	{"Q10", "gdl-ext", "1fb|1fb;4|4", 13299.512441178469, 11, 17, 2},
	{"Q10", "gdl-rdbms", "14|14;1eb|1eb", 5135.125086862207, 11, 20, 2},
	{"Q11", "gdl-ext", "3|3", 6095.849906970537, 2, 0, 1},
	{"Q11", "gdl-rdbms", "3|3", 3246.7500000000005, 2, 0, 1},
	{"Q12", "gdl-ext", "7|7;8|8", 161926.34105621802, 2, 2, 0},
	{"Q12", "gdl-rdbms", "f|f", 6169.1971890971045, 2, 2, 1},
	{"Q13", "gdl-ext", "10|10;7|7;c|8", 11473.294670534413, 4, 5, 1},
	{"Q13", "gdl-rdbms", "10|10;7|7;c|8", 5881.679545454546, 4, 5, 1},
	{"A3", "gdl-ext", "7|7", 1900.6319840790081, 5, 2, 2},
	{"A3", "gdl-rdbms", "7|7", 1844.1569057693969, 5, 2, 2},
	{"A3", "edl", "7|7", 1900.6319840790081, 5, 8, 0},
	{"A4", "gdl-ext", "f|f", 1291.3431408434672, 11, 8, 3},
	{"A4", "gdl-rdbms", "f|f", 1265.8430201406825, 11, 8, 3},
	{"A4", "edl", "f|f", 1291.3431408434672, 15, 323, 0},
	{"A5", "gdl-ext", "1f|1f", 713.0059782224699, 21, 19, 4},
	{"A5", "gdl-rdbms", "1f|1f", 700.7352507085155, 21, 19, 4},
}

// TestSearchTrajectoryGolden: costing covers fragment by fragment is an
// exact recomposition, not an approximation — every search makes the
// decisions it made when each candidate was lowered and estimated whole.
func TestSearchTrajectoryGolden(t *testing.T) {
	tb, db := lubm.TBox(), lubmDB()
	byName := map[string]query.CQ{}
	for _, q := range trajectoryQueries() {
		byName[q.Name] = q
	}
	for _, g := range goldenTrajectory {
		q, ref := byName[g.query], reformulate.New(tb)
		var res Result
		switch g.search {
		case "gdl-ext":
			res = GDL(q, tb, ref, &ExtEstimator{Model: cost.NewModel(db)}, Options{})
		case "gdl-rdbms":
			res = GDL(q, tb, ref, &RDBMSEstimator{DB: db, Profile: engine.ProfilePostgres()}, Options{})
		case "edl":
			res = EDL(q, tb, ref, &ExtEstimator{Model: cost.NewModel(db)}, Options{MaxCovers: 20000})
		}
		if res.Err != nil {
			t.Fatalf("%s/%s: %v", g.query, g.search, res.Err)
		}
		if res.Cover.Key() != g.cover || res.Cost != g.cost ||
			res.ExploredLq != g.lq || res.ExploredGq != g.gq || res.Moves != g.moves {
			t.Errorf("%s/%s: cover %s cost %v explored %d+%d moves %d, recorded %s %v %d+%d %d",
				g.query, g.search, res.Cover.Key(), res.Cost, res.ExploredLq, res.ExploredGq, res.Moves,
				g.cover, g.cost, g.lq, g.gq, g.moves)
		}
		if res.FragmentsEstimated == 0 || res.FragmentsEstimated+res.FragmentsReused < res.ExploredLq+res.ExploredGq {
			t.Errorf("%s/%s: %d covers explored over %d fragments built, %d reused",
				g.query, g.search, res.ExploredLq+res.ExploredGq, res.FragmentsEstimated, res.FragmentsReused)
		}
	}
}

// recordingEstimator keeps every tree the search hands it, in order.
type recordingEstimator struct {
	inner Estimator
	trees []*plan.Node
}

func (r *recordingEstimator) Name() string { return r.inner.Name() }
func (r *recordingEstimator) Estimate(n *plan.Node) float64 {
	r.trees = append(r.trees, n)
	return r.inner.Estimate(n)
}

// fragmentsOf returns the fragment subtrees of a candidate's tree; a
// single-fragment cover's tree is its fragment.
func fragmentsOf(n *plan.Node) []*plan.Node {
	if frags := plan.CoverFragments(n); frags != nil {
		return frags
	}
	return []*plan.Node{n}
}

// coverFromKey inverts Cover.Key.
func coverFromKey(t *testing.T, q query.CQ, key string) cover.Cover {
	c := cover.Cover{Q: q}
	for _, part := range strings.Split(key, ";") {
		fg := strings.Split(part, "|")
		f, err1 := strconv.ParseUint(fg[0], 16, 64)
		g, err2 := strconv.ParseUint(fg[1], 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad cover key %q", key)
		}
		c.Frags = append(c.Frags, cover.Fragment{F: f, G: g})
	}
	return c
}

// TestSharedTreeIsTheLoweredJUCQ walks GDL's rounds and checks, for
// every cover visited, that the tree assembled over the fragment table
// is the tree lowering and rewriting the cover's JUCQ from scratch
// builds, and that every candidate of a round shares all but the one
// fragment its move created with the cover the round started from, by
// pointer.
func TestSharedTreeIsTheLoweredJUCQ(t *testing.T) {
	tb, db := lubm.TBox(), lubmDB()
	never := func() bool { return false }
	for _, q := range trajectoryQueries() {
		ref := reformulate.New(tb)
		rec := &recordingEstimator{inner: &ExtEstimator{Model: cost.NewModel(db)}}
		ev := newEvaluator(ref, rec, nil, q)
		cur := cover.RootCover(q, tb)
		curCost, ok := ev.estimate(cur)
		if !ok {
			t.Fatal(ev.err)
		}
		for {
			_, curTree, err := ev.build(cur)
			if err != nil {
				t.Fatal(err)
			}
			held := map[*plan.Node]bool{}
			for _, f := range fragmentsOf(curTree) {
				held[f] = true
			}
			mark := len(rec.trees)
			best, bestCost, found, ok := bestMove(ev, cur, curCost, never)
			if !ok {
				t.Fatal(ev.err)
			}
			for _, cand := range rec.trees[mark:] {
				frags, shared := fragmentsOf(cand), 0
				for _, f := range frags {
					if held[f] {
						shared++
					}
				}
				if shared < len(frags)-1 {
					t.Errorf("%s: a candidate of %s shares %d of its %d fragment subtrees with it, want all but one",
						q.Name, cur.Key(), shared, len(frags))
				}
			}
			if !found {
				break
			}
			cur, curCost = best, bestCost
		}

		built := map[*plan.Node]bool{}
		for _, tree := range rec.trees {
			for _, f := range fragmentsOf(tree) {
				built[f] = true
			}
		}
		if len(built) != ev.built {
			t.Errorf("%s: %d distinct fragment subtrees reached the estimator, table built %d", q.Name, len(built), ev.built)
		}
		if len(rec.trees) != len(ev.seen) {
			t.Errorf("%s: %d trees estimated for %d covers", q.Name, len(rec.trees), len(ev.seen))
		}
		for key := range ev.seen {
			c := coverFromKey(t, q, key)
			j, err := c.ReformulateJUCQ(ref)
			if err != nil {
				t.Fatal(err)
			}
			gotJ, got, err := ev.build(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := plan.Rewrite(plan.FromJUCQ(j)); !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: assembled tree differs from the lowered JUCQ:\n got %s\nwant %s", q.Name, key, got, want)
			}
			if !reflect.DeepEqual(gotJ, j) {
				t.Errorf("%s %s: assembled JUCQ differs from the cover's reformulation", q.Name, key)
			}
			for _, f := range fragmentsOf(got) {
				if !built[f] {
					t.Errorf("%s %s: rebuilt tree holds a fragment subtree the search never built", q.Name, key)
				}
			}
		}
	}
}

// slowEstimator scores every tree after the first a little cheaper than
// the one before, taking its time over each.
type slowEstimator struct {
	delay time.Duration
	calls int
}

func (s *slowEstimator) Name() string { return "slow" }
func (s *slowEstimator) Estimate(*plan.Node) float64 {
	s.calls++
	if s.calls > 1 {
		time.Sleep(s.delay)
	}
	return 1000 - float64(s.calls)
}

// TestTimeLimitedGDLKeepsTheInterruptedRoundsBestMove: when the limit
// strikes in the middle of a round (§6.4), the best improving move the
// round had already found is taken, not thrown away.
func TestTimeLimitedGDLKeepsTheInterruptedRoundsBestMove(t *testing.T) {
	tb := dllite.MustParseTBox("Unrelated <= Thing")
	q := query.MustParseCQ("q(x) <- A(x), R(x, y), B(y), S(y, z), C(z)")
	est := &slowEstimator{delay: 150 * time.Millisecond}
	res := GDL(q, tb, reformulate.New(tb), est, Options{TimeLimit: 100 * time.Millisecond})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Croot is scored at once; the first candidate outlasts the limit
	// and is an improvement, so exactly that one move is made.
	root := cover.RootCover(q, tb)
	if est.calls != 2 || res.Moves != 1 || res.Cost != 998 {
		t.Fatalf("calls %d, moves %d, cost %v; want 2 calls, 1 move, cost 998", est.calls, res.Moves, res.Cost)
	}
	if want := root.UnionFragments(0, 1); res.Cover.Key() != want.Key() {
		t.Errorf("cover %s, want the first candidate %s (root %s)", res.Cover.Key(), want.Key(), root.Key())
	}
	if res.Plan == nil || len(res.JUCQ.Subs) != len(res.Cover.Frags) {
		t.Errorf("result carries no plan/JUCQ for the adopted cover")
	}
}

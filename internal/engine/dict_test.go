package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/query"
)

// tableModel is the map-based reference the dense-id tables are checked
// against: the layout the simple tables had before they were rebuilt
// around dense ids.
type tableModel struct {
	members map[int64]bool
	pairs   map[[2]int64]bool
	fwd     map[int64]map[int64]bool
	rev     map[int64]map[int64]bool
}

func newTableModel() *tableModel {
	return &tableModel{
		members: map[int64]bool{},
		pairs:   map[[2]int64]bool{},
		fwd:     map[int64]map[int64]bool{},
		rev:     map[int64]map[int64]bool{},
	}
}

func (m *tableModel) addPair(s, o int64) {
	m.pairs[[2]int64{s, o}] = true
	if m.fwd[s] == nil {
		m.fwd[s] = map[int64]bool{}
	}
	if m.rev[o] == nil {
		m.rev[o] = map[int64]bool{}
	}
	m.fwd[s][o] = true
	m.rev[o][s] = true
}

func sortedKeys(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestPropTablesMatchMapModel: after several rounds of random writes
// (duplicates included) to a few tables, each round closed by
// Finalize, every probe of every table answers as the map model does,
// for every id up to the dictionary size and a margin past it — so
// also past each table's largest id.
func TestPropTablesMatchMapModel(t *testing.T) {
	names := []string{"P", "Q"}
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		db := NewDB(LayoutSimple)
		models := map[string]*tableModel{"P": newTableModel(), "Q": newTableModel()}
		for round := 0; round < 1+r.Intn(4); round++ {
			for i := r.Intn(3 * n); i > 0; i-- {
				// Skew subjects towards low ids so duplicates are common.
				name := names[r.Intn(len(names))]
				s, o := r.Intn(1+r.Intn(n)), r.Intn(n)
				db.AddConceptFact(name, "e"+itoa(s))
				db.AddRoleFact(name, "e"+itoa(s), "e"+itoa(o))
				m := models[name]
				sid, _ := db.Dict.Lookup("e" + itoa(s))
				oid, _ := db.Dict.Lookup("e" + itoa(o))
				m.members[sid] = true
				m.addPair(sid, oid)
			}
			db.Finalize()
			for name, m := range models {
				// A table not yet written is absent (nil): probes of it
				// must answer empty like the empty model.
				c, rt := db.Concept(name), db.Role(name)
				var ids []int64
				var pairs [][2]int64
				if c != nil {
					ids, pairs = c.IDs, rt.Pairs
				}
				if !slices.Equal(ids, sortedKeys(m.members)) || c.Card() != len(m.members) {
					t.Fatalf("seed %d %s: concept IDs = %v, model %v", seed, name, ids, sortedKeys(m.members))
				}
				if rt.Card() != len(m.pairs) || rt.DistinctS() != len(m.fwd) || rt.DistinctO() != len(m.rev) {
					t.Fatalf("seed %d %s: card/distS/distO = %d/%d/%d, model %d/%d/%d", seed, name,
						rt.Card(), rt.DistinctS(), rt.DistinctO(), len(m.pairs), len(m.fwd), len(m.rev))
				}
				if !slices.IsSortedFunc(pairs, comparePairs) {
					t.Fatalf("seed %d %s: pairs unsorted", seed, name)
				}
				for _, p := range pairs {
					if !m.pairs[p] {
						t.Fatalf("seed %d %s: stored pair %v not in model", seed, name, p)
					}
				}
				for id := int64(0); id < int64(db.Dict.Size())+70; id++ {
					if c.Contains(id) != m.members[id] {
						t.Fatalf("seed %d %s: Contains(%d) = %v", seed, name, id, !m.members[id])
					}
					if got := rt.Objects(id); !slices.Equal(got, sortedKeys(m.fwd[id])) {
						t.Fatalf("seed %d %s: Objects(%d) = %v, model %v", seed, name, id, got, sortedKeys(m.fwd[id]))
					}
					if got := rt.Subjects(id); !slices.Equal(got, sortedKeys(m.rev[id])) {
						t.Fatalf("seed %d %s: Subjects(%d) = %v, model %v", seed, name, id, got, sortedKeys(m.rev[id]))
					}
					for o := int64(0); o < int64(db.Dict.Size())+3; o += 1 + int64(r.Intn(4)) {
						if rt.ContainsPair(id, o) != m.pairs[[2]int64{id, o}] {
							t.Fatalf("seed %d %s: ContainsPair(%d, %d) = %v", seed, name, id, o, !m.pairs[[2]int64{id, o}])
						}
					}
				}
			}
		}
	}
}

// TestTableProbesOutOfRange: probes with ids past a table's largest id,
// negative ids, probes of a table that has only pending writes, and
// probes of absent (nil) tables all return empty without panicking.
func TestTableProbesOutOfRange(t *testing.T) {
	var c ConceptTable
	var rt RoleTable
	c.add(3)
	rt.add(3, 5)
	// Written but not finalized: nothing visible yet.
	if c.Contains(3) || rt.ContainsPair(3, 5) || len(rt.Objects(3)) != 0 || len(rt.Subjects(5)) != 0 {
		t.Fatal("pending writes visible before finalize")
	}
	c.finalize()
	rt.finalize()
	for _, id := range []int64{-1, 4, 63, 64, 1 << 40} {
		if c.Contains(id) || rt.ContainsPair(id, 5) || rt.ContainsPair(3, id) ||
			len(rt.Objects(id)) != 0 || len(rt.Subjects(id)) != 0 {
			t.Fatalf("id %d: probe not empty", id)
		}
	}
	var nc *ConceptTable
	var nr *RoleTable
	if nc.Contains(0) || nc.Card() != 0 || nr.ContainsPair(0, 0) || nr.Objects(0) != nil ||
		nr.Subjects(0) != nil || nr.Card() != 0 || nr.DistinctS() != 0 || nr.DistinctO() != 0 {
		t.Fatal("nil table probe not empty")
	}
}

// TestFinalizeRebuildsOnlyWrittenTables: Finalize is where a write
// becomes visible, and it rebuilds only the tables that were written —
// every other table keeps its backing arrays.
func TestFinalizeRebuildsOnlyWrittenTables(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	pairs := map[string]*[2]int64{}
	for _, name := range db.RoleNames() {
		pairs[name] = &db.Role(name).Pairs[0]
	}
	ids := map[string]*int64{}
	for _, name := range db.ConceptNames() {
		ids[name] = &db.Concept(name).IDs[0]
	}
	db.AddRoleFact("worksWith", "Damian", "Ioana")
	db.Finalize()
	for name, p := range pairs {
		if same := &db.Role(name).Pairs[0] == p; same == (name == "worksWith") {
			t.Errorf("role %s: backing array kept = %v after a write to worksWith", name, same)
		}
	}
	for name, p := range ids {
		if &db.Concept(name).IDs[0] != p {
			t.Errorf("concept %s rebuilt by a role write", name)
		}
	}
	q := query.MustParseCQ("q(y) <- worksWith('Damian', y)")
	if ans := EvaluateCQ(q, db, ProfilePostgres()); len(ans.Tuples) != 1 || ans.Tuples[0][0] != "Ioana" {
		t.Fatalf("write not answered: %v", ans.Tuples)
	}
}

// pendingWriteQueries read the facts written without Finalize in the
// Partition test below.
var pendingWriteQueries = []string{
	"q(x, y) <- worksWith(x, y)",
	"q(x) <- supervisedBy(x, y), Researcher(y)",
	"q(x) <- Researcher(x)",
}

func writeUnfinalized(db *DB) {
	db.AddRoleFact("worksWith", "Damian", "Ioana")
	db.AddRoleFact("supervisedBy", "Anna", "Ioana")
	db.AddConceptFact("Researcher", "Anna")
}

// TestPartitionSeesPendingWrites: Partition finalizes pending writes
// first, so the shards hold every written fact and answer as the base.
func TestPartitionSeesPendingWrites(t *testing.T) {
	db := loadDB(t, LayoutSimple, sampleABox)
	writeUnfinalized(db)
	p, err := Partition(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < p.NumShards(); i++ {
		total += p.Shard(i).NumFacts()
	}
	if total != 9 {
		t.Fatalf("shards hold %d facts, want 9", total)
	}
	for _, qs := range pendingWriteQueries {
		q := query.MustParseCQ(qs)
		want := tupleSet(EvaluateCQ(q, db, ProfilePostgres()).Tuples)
		got := map[string]bool{}
		// Split the first atom's relation on its subject and broadcast
		// the rest: the shards' answers then union to the base's.
		part := map[string]bool{q.Atoms[0].Pred: true}
		for i := 0; i < p.NumShards(); i++ {
			for k := range tupleSet(EvaluateCQ(q, p.View(i, part), ProfilePostgres()).Tuples) {
				got[k] = true
			}
		}
		if !sameSets(got, want) {
			t.Errorf("%s: shards %v, base %v", qs, got, want)
		}
	}
}

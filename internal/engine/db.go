package engine

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/dllite"
)

// Layout selects the physical data layout (Section 6.1).
type Layout int

const (
	// LayoutSimple stores a unary table per concept and a binary table
	// per role, with all one- and two-attribute indexes: a bitset per
	// concept and forward and reverse CSR adjacency arrays per role,
	// all indexed by dictionary id (dict.go).
	LayoutSimple Layout = iota
	// LayoutRDF stores assertions in DB2RDF-style entity-oriented
	// hashed-column tables (DPH/RPH) [9].
	LayoutRDF
)

func (l Layout) String() string {
	if l == LayoutRDF {
		return "RDF layout"
	}
	return "Simple layout"
}

// DB is a loaded database (the ABox under a physical layout).
type DB struct {
	Dict   *Dictionary
	Layout Layout

	concepts map[string]*ConceptTable
	roles    map[string]*RoleTable
	rdf      *rdfStore // non-nil when Layout == LayoutRDF

	// statsMu guards stats, pending and version: queries running
	// concurrently (server traffic) may all ask for statistics while a
	// late Finalize is still computing them.
	statsMu sync.Mutex
	stats   *Statistics // of the last Finalize; nil before the first
	pending bool        // a write since the last Finalize
	version uint64      // data version: bumped by every write
}

// NewDB builds an empty database with the given layout.
func NewDB(layout Layout) *DB {
	return &DB{
		Dict:     NewDictionary(),
		Layout:   layout,
		concepts: make(map[string]*ConceptTable),
		roles:    make(map[string]*RoleTable),
	}
}

// AddConceptFact stores A(ind). The fact is pending until the next
// Finalize, which is where a write becomes visible to probes; Stats
// finalizes lazily for callers that forget to.
func (db *DB) AddConceptFact(concept, ind string) {
	id := db.Dict.Encode(ind)
	t := db.concepts[concept]
	if t == nil {
		t = new(ConceptTable)
		db.concepts[concept] = t
	}
	t.add(id)
	db.invalidate()
}

// AddRoleFact stores R(s, o). Like AddConceptFact, the fact becomes
// visible to probes at the next Finalize (or lazy Stats).
func (db *DB) AddRoleFact(role, s, o string) {
	sid, oid := db.Dict.Encode(s), db.Dict.Encode(o)
	t := db.roles[role]
	if t == nil {
		t = new(RoleTable)
		db.roles[role] = t
	}
	t.add(sid, oid)
	db.invalidate()
}

// invalidate marks the statistics stale, so the next Stats finalizes
// the write, and bumps the data version. The version does not move the
// statistics epoch: only the Finalize that publishes the write can. No
// operator tree needs telling: Open reads the tables and the
// dictionary afresh on every run.
func (db *DB) invalidate() {
	db.statsMu.Lock()
	db.pending = true
	db.version++
	db.statsMu.Unlock()
}

// Version returns the data version: a counter bumped by every ABox
// mutation. It keys what a write must strand whatever it changed: the
// shard backend's plan and result caches. Plans key on the statistics
// epoch instead (Statistics.Epoch), which moves only when the
// statistics their estimates read do, and pooled operator trees on
// nothing from the data, since Open reads it afresh.
func (db *DB) Version() uint64 {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	return db.version
}

// LoadABox bulk-loads an ABox and finalizes the layout.
func (db *DB) LoadABox(ab *dllite.ABox) {
	for _, as := range ab.Assertions {
		if as.IsRole() {
			db.AddRoleFact(as.Pred, as.S, as.O)
		} else {
			db.AddConceptFact(as.Pred, as.S)
		}
	}
	db.Finalize()
}

// Finalize merges pending writes into their tables and rebuilds those
// tables' indexes, derives the RDF layout when selected, and computes
// statistics. It is the point where writes become visible to probes:
// call it after loading or writing and before querying (loaders in
// this repo call it for you; Stats calls it lazily after any write).
// Tables without pending writes keep their storage, so a write costs a
// rebuild of the table it went to, not of the whole database.
func (db *DB) Finalize() {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	db.finalizeLocked()
}

func (db *DB) finalizeLocked() {
	for _, t := range db.concepts {
		t.finalize()
	}
	for _, t := range db.roles {
		t.finalize()
	}
	if db.Layout == LayoutRDF {
		db.rdf = buildRDFStore(db)
	}
	s := computeStatistics(db)
	if prev := db.stats; prev != nil {
		s.Epoch = prev.Epoch
		if !s.sameBuckets(prev) {
			s.Epoch++
		}
	}
	db.stats = s
	db.pending = false
}

// NumFacts returns the total number of stored assertions, pending
// writes included (it finalizes them).
func (db *DB) NumFacts() int { return db.Stats().TotalFacts }

// Concept returns the concept table (nil when absent: empty relation).
func (db *DB) Concept(name string) *ConceptTable { return db.concepts[name] }

// Role returns the role table (nil when absent: empty relation).
func (db *DB) Role(name string) *RoleTable { return db.roles[name] }

// ConceptNames returns the stored concept table names, sorted.
func (db *DB) ConceptNames() []string {
	out := make([]string, 0, len(db.concepts))
	for k := range db.concepts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RoleNames returns the stored role table names, sorted.
func (db *DB) RoleNames() []string {
	out := make([]string, 0, len(db.roles))
	for k := range db.roles {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Stats returns the table statistics, computing them if needed. Safe
// for concurrent use: parallel queries may race a lazy finalize.
func (db *DB) Stats() *Statistics {
	db.statsMu.Lock()
	defer db.statsMu.Unlock()
	if db.stats == nil || db.pending {
		db.finalizeLocked()
	}
	return db.stats
}

// Statistics holds per-table cardinalities and distinct-value counts —
// what the cost models consume (Section 6.1: "statistics on the stored
// data (cardinality and number of distinct values in each stored table
// attribute)"). Finalize publishes a new value and never mutates a
// published one, so a plan costed on it keeps its estimates.
type Statistics struct {
	// Epoch numbers the statistics' power-of-two buckets: it moves only
	// when a Finalize moves a statistic to another bucket
	// (computeStatistics gives the rule). The answer cache keys plans on
	// it, so a write that leaves every bucket alone strands no plan.
	Epoch uint64

	TotalFacts    int
	TotalEntities int

	ConceptCard map[string]int
	RoleCard    map[string]int
	RoleDistS   map[string]int
	RoleDistO   map[string]int
}

// computeStatistics reads the tables' statistics; Finalize then sets
// the epoch. The epoch rule: the statistics an estimator reads — each
// table's cardinality, each role's distinct subjects and distinct
// objects, TotalFacts and TotalEntities — each fall in a power-of-two
// bucket (bits.Len: 0 for 0, then 1, 2–3, 4–7, …), and the epoch
// advances when any of them lands in a different bucket than at the
// last Finalize. A table that appears, empties or fills therefore moves
// it (bucket 0 against any other); a Finalize with nothing pending
// never does. A plan chosen within the current epoch saw every
// statistic within a factor of two of today's; chosen in any epoch it
// answers the same (every safe cover does, Theorems 1 and 3), so
// keeping it costs at most time, never rows.
func computeStatistics(db *DB) *Statistics {
	s := &Statistics{
		ConceptCard: make(map[string]int),
		RoleCard:    make(map[string]int),
		RoleDistS:   make(map[string]int),
		RoleDistO:   make(map[string]int),
	}
	for name, t := range db.concepts {
		s.ConceptCard[name] = t.Card()
		s.TotalFacts += t.Card()
	}
	for name, t := range db.roles {
		s.RoleCard[name] = t.Card()
		s.RoleDistS[name] = t.DistinctS()
		s.RoleDistO[name] = t.DistinctO()
		s.TotalFacts += t.Card()
	}
	s.TotalEntities = db.Dict.Size()
	return s
}

// sameBuckets reports whether every statistic the epoch rule reads
// falls in the same power-of-two bucket in s as in prev.
func (s *Statistics) sameBuckets(prev *Statistics) bool {
	return bucket(s.TotalFacts) == bucket(prev.TotalFacts) &&
		bucket(s.TotalEntities) == bucket(prev.TotalEntities) &&
		sameBuckets(s.ConceptCard, prev.ConceptCard) &&
		sameBuckets(s.RoleCard, prev.RoleCard) &&
		sameBuckets(s.RoleDistS, prev.RoleDistS) &&
		sameBuckets(s.RoleDistO, prev.RoleDistO)
}

// sameBuckets compares two per-table statistics, a table missing from
// either counting as 0.
func sameBuckets(a, b map[string]int) bool {
	for k, v := range a {
		if bucket(v) != bucket(b[k]) {
			return false
		}
	}
	for k, v := range b {
		if bucket(v) != bucket(a[k]) {
			return false
		}
	}
	return true
}

// bucket is n's power-of-two bucket.
func bucket(n int) int { return bits.Len(uint(n)) }

// CardConcept returns the concept cardinality (0 for unknown tables).
func (s *Statistics) CardConcept(name string) int { return s.ConceptCard[name] }

// CardRole returns the role cardinality (0 for unknown tables).
func (s *Statistics) CardRole(name string) int { return s.RoleCard[name] }

// String summarizes the statistics.
func (s *Statistics) String() string {
	return fmt.Sprintf("stats{facts=%d, entities=%d, concepts=%d, roles=%d}",
		s.TotalFacts, s.TotalEntities, len(s.ConceptCard), len(s.RoleCard))
}

package engine

// rdfStore is the DB2RDF-style entity-oriented layout [9]: a direct
// primary hash table (DPH) with one row per subject and NumSlots
// hashed predicate columns, plus the reverse table (RPH) keyed by
// object. Concept memberships are stored under the reserved rdf:type
// predicate, whose object is the (dictionary-encoded) concept name.
//
// The layout reproduces the two effects the paper measures on DB2's RDF
// store: (i) accessing one predicate requires inspecting every hashed
// column (long disjunctive SQL, slower scans — the executor really does
// probe the slots), and (ii) the SQL translation of a reformulated
// query explodes in size, tripping DB2's statement-length limit
// (enforced from the generated SQL by package sqlgen + the profile).
//
// The paper notes DB2RDF assigns predicates to columns with a linear
// programming solver; we use first-fit hashing with per-row overflow,
// which preserves the measured behaviour.
type rdfStore struct {
	// NumSlots is the number of hashed predicate columns per row.
	NumSlots int

	dph map[int64]*rdfRow // subject → row
	rph map[int64]*rdfRow // object  → row

	preds    []string         // predicate id → name (role names + typePred)
	predID   map[string]int32 // name → predicate id
	typePred int32

	conceptID map[string]int64 // concept name → object id used under rdf:type
}

type rdfSlot struct {
	pred int32 // -1 when empty
	vals []int64
}

type rdfRow struct {
	slots    []rdfSlot
	overflow []rdfSlot // predicates that did not fit in the hashed columns
}

// DefaultRDFSlots mirrors DB2RDF's modest column budget.
const DefaultRDFSlots = 12

func buildRDFStore(db *DB) *rdfStore {
	st := &rdfStore{
		NumSlots:  DefaultRDFSlots,
		dph:       make(map[int64]*rdfRow),
		rph:       make(map[int64]*rdfRow),
		predID:    make(map[string]int32),
		conceptID: make(map[string]int64),
	}
	intern := func(name string) int32 {
		if id, ok := st.predID[name]; ok {
			return id
		}
		id := int32(len(st.preds))
		st.predID[name] = id
		st.preds = append(st.preds, name)
		return id
	}
	st.typePred = intern("rdf:type")
	for _, role := range db.RoleNames() {
		p := intern(role)
		for _, pair := range db.roles[role].Pairs {
			st.insert(st.dph, pair[0], p, pair[1])
			st.insert(st.rph, pair[1], p, pair[0])
		}
	}
	for _, concept := range db.ConceptNames() {
		cid := db.Dict.Encode("class:" + concept)
		st.conceptID[concept] = cid
		for _, s := range db.concepts[concept].IDs {
			st.insert(st.dph, s, st.typePred, cid)
			st.insert(st.rph, cid, st.typePred, s)
		}
	}
	return st
}

func (st *rdfStore) insert(tab map[int64]*rdfRow, key int64, pred int32, val int64) {
	row := tab[key]
	if row == nil {
		row = &rdfRow{slots: make([]rdfSlot, st.NumSlots)}
		for i := range row.slots {
			row.slots[i].pred = -1
		}
		tab[key] = row
	}
	// First-fit from the hash position (linear probing).
	h := int(uint32(pred)) % st.NumSlots
	for i := 0; i < st.NumSlots; i++ {
		s := &row.slots[(h+i)%st.NumSlots]
		if s.pred == pred {
			s.vals = append(s.vals, val)
			return
		}
		if s.pred == -1 {
			s.pred = pred
			s.vals = []int64{val}
			return
		}
	}
	for i := range row.overflow {
		if row.overflow[i].pred == pred {
			row.overflow[i].vals = append(row.overflow[i].vals, val)
			return
		}
	}
	row.overflow = append(row.overflow, rdfSlot{pred: pred, vals: []int64{val}})
}

// probe scans a row's hashed columns (and overflow) for pred — the
// column-disjunction DB2RDF SQL performs. It deliberately inspects
// every slot rather than hashing directly, matching the generated SQL's
// CASE over all columns.
func (row *rdfRow) probe(pred int32) []int64 {
	if row == nil {
		return nil
	}
	for i := range row.slots {
		if row.slots[i].pred == pred {
			return row.slots[i].vals
		}
	}
	for i := range row.overflow {
		if row.overflow[i].pred == pred {
			return row.overflow[i].vals
		}
	}
	return nil
}

// --- access paths used by the executor on LayoutRDF ---

func (st *rdfStore) roleObjects(role string, s int64) []int64 {
	p, ok := st.predID[role]
	if !ok {
		return nil
	}
	return st.dph[s].probe(p)
}

func (st *rdfStore) roleSubjects(role string, o int64) []int64 {
	p, ok := st.predID[role]
	if !ok {
		return nil
	}
	return st.rph[o].probe(p)
}

func (st *rdfStore) roleContains(role string, s, o int64) bool {
	for _, v := range st.roleObjects(role, s) {
		if v == o {
			return true
		}
	}
	return false
}

// rolePairs performs the full-table scan: every DPH row, every column.
func (st *rdfStore) rolePairs(role string, visit func(s, o int64)) {
	p, ok := st.predID[role]
	if !ok {
		return
	}
	for s, row := range st.dph {
		for _, v := range row.probe(p) {
			visit(s, v)
		}
	}
}

func (st *rdfStore) conceptMembers(concept string) []int64 {
	cid, ok := st.conceptID[concept]
	if !ok {
		return nil
	}
	return st.rph[cid].probe(st.typePred)
}

func (st *rdfStore) conceptContains(concept string, id int64) bool {
	cid, ok := st.conceptID[concept]
	if !ok {
		return false
	}
	for _, v := range st.dph[id].probe(st.typePred) {
		if v == cid {
			return true
		}
	}
	return false
}

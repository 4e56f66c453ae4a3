package engine

// Streaming batched operator model. Instead of materializing every
// intermediate result as [][]int64, plans compile (compile.go) into a
// tree of Operators exchanging fixed-capacity batches of int64 rows:
//
//	Open()          prepare state (recursively opens children)
//	Next(*Batch)    fill the caller's batch; false when exhausted
//	Close()         release state
//
// The operators are the classic relational set specialized to the
// dictionary-encoded storage: source scans (scanOp, singletonOp), an
// index-nested-loop join driven by the plan's access paths (joinOp),
// a filter on fully bound atoms and existence probes (filterOp), head
// projection (projectOp), streaming DISTINCT over a 64-bit hash set
// (distinctOp), and sequential / parallel union (unionOp, parallel.go's
// unionParallelOp).
// Every operator counts the batches and rows it emits, for Stats and
// EXPLAIN's actual row counts.
//
// Batch storage is pooled engine-wide (getBatch/putBatch): an operator
// takes its input batch in Open and returns it in Close, and the
// sequential union opens one arm at a time, so a run of a UCQ's
// hundreds of arms — and every later run of the same plan — reuses a
// handful of buffers instead of growing fresh ones.
//
// Trees are reused too: Compiled.Run (backend.go) re-opens the tree a
// previous run of the same plan left behind, so Open resets whatever a
// run leaves in an operator and reads from the database afresh
// everything the operator takes from it: tables, and the dictionary ids
// of constants (atomJoin.open).

import (
	"strings"
	"sync"
)

// DefaultBatchSize is the row capacity of one exchanged batch.
const DefaultBatchSize = 1024

// Batch is a fixed-capacity, row-major buffer of int64 rows flowing
// between operators. Width zero (boolean pipelines) is supported: rows
// are counted even though they carry no columns.
type Batch struct {
	width int
	n     int
	data  []int64
}

// NewBatch allocates a batch for rows of the given width. Storage grows
// on demand up to the row capacity and survives Reset, so a pooled
// batch (getBatch, the engine's own source of batches) grows once and
// is then reused run after run.
func NewBatch(width int) *Batch {
	return &Batch{width: width}
}

// Width returns the number of columns per row.
func (b *Batch) Width() int { return b.width }

// Len returns the number of rows currently held.
func (b *Batch) Len() int { return b.n }

// Full reports whether the batch reached its row capacity.
func (b *Batch) Full() bool { return b.n >= DefaultBatchSize }

// Reset empties the batch, keeping its storage.
func (b *Batch) Reset() {
	b.n = 0
	b.data = b.data[:0]
}

// Row returns the i-th row, aliasing the batch's storage.
func (b *Batch) Row(i int) []int64 { return b.data[i*b.width : (i+1)*b.width] }

// Append copies row into the batch and returns the in-batch slice so
// callers can overwrite individual columns in place.
func (b *Batch) Append(row []int64) []int64 {
	b.data = append(b.data, row...)
	b.n++
	return b.data[len(b.data)-b.width:]
}

// CopyFrom replaces the batch's contents with src's.
func (b *Batch) CopyFrom(src *Batch) {
	b.width = src.width
	b.n = src.n
	b.data = append(b.data[:0], src.data...)
}

// --- pooled batch storage ---

// maxPooledWidth bounds the row widths that have a pool; a wider batch
// is allocated per use.
const maxPooledWidth = 32

// batchPools recycles batches engine-wide, one pool per row width. They
// are sync.Pools, so idle batches are freed by the garbage collector
// rather than outliving the runs that needed them.
var batchPools [maxPooledWidth + 1]sync.Pool

// getBatch takes an empty batch of the given width from the pool.
func getBatch(width int) *Batch {
	if width <= maxPooledWidth {
		if b, ok := batchPools[width].Get().(*Batch); ok {
			return b
		}
	}
	return NewBatch(width)
}

// putBatch empties b and returns it to the pool. The caller must hold
// no other reference to b: the next getBatch may hand it out.
func putBatch(b *Batch) {
	if b.width > maxPooledWidth {
		return
	}
	b.Reset()
	batchPools[b.width].Put(b)
}

// takeBatch gives an operator its input batch in Open: an empty one,
// from the pool unless the operator still holds one.
func takeBatch(owner **Batch, width int) {
	if *owner == nil {
		*owner = getBatch(width)
	}
	(*owner).Reset()
}

// releaseBatch returns an operator's batch to the pool in Close and
// clears the field holding it, so a second release finds nothing to
// return and no batch is ever pooled twice.
func releaseBatch(owner **Batch) {
	if *owner != nil {
		putBatch(*owner)
		*owner = nil
	}
}

// OpStats reports what one operator produced during execution.
type OpStats struct {
	Op      string
	Batches int64
	Rows    int64
}

// Operator is the streaming execution interface. Next fills the
// caller's batch (resetting it first) and returns false once the
// stream is exhausted; batches need not be full. Operators are
// single-consumer and not safe for concurrent Next calls; the parallel
// union runs each child on exactly one worker.
type Operator interface {
	// Schema names the columns of emitted batches; emitted batches have
	// width len(Schema()).
	Schema() []string
	Open()
	Next(out *Batch) bool
	Close()
	Stats() OpStats
	Children() []Operator
}

// opBase carries the shared schema, emit counters, and the open/closed
// lifecycle bit behind closeOnce.
type opBase struct {
	name    string
	schema  []string
	batches int64
	rows    int64
	opened  bool
}

func (o *opBase) Schema() []string { return o.schema }

// resetStats zeroes the emit counters and arms closeOnce; every
// operator calls it from Open so a reused tree (Compiled.Run re-opens
// pooled ones) reports per-execution cardinalities, keeping Stats
// scoped to one execution.
func (o *opBase) resetStats() {
	o.batches, o.rows = 0, 0
	o.opened = true
}

// closeOnce reports whether this Close call balances a prior Open,
// flipping the operator to closed. Every non-trivial Close guards its
// side effects (child closes, batch releases) with it, making double
// Close and Close-without-Open safe no-ops — the idempotency half of
// the Operator contract, machine-checked by internal/lint's opcontract
// analyzer. Operators are single-consumer, so no locking is needed;
// concurrent closers (parallel union workers vs the consumer) are
// ordered by the worker WaitGroup.
func (o *opBase) closeOnce() bool {
	if !o.opened {
		return false
	}
	o.opened = false
	return true
}

func (o *opBase) Stats() OpStats {
	return OpStats{Op: o.name, Batches: o.batches, Rows: o.rows}
}

// yield counts out's rows and reports whether it is non-empty.
func (o *opBase) yield(out *Batch) bool {
	if out.Len() == 0 {
		return false
	}
	o.batches++
	o.rows += int64(out.Len())
	return true
}

// --- hashing (shared by distinctOp, Relation.Distinct, HashJoin) ---

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// mixing function, so dedup needs no string keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashRow hashes a row order-sensitively.
func hashRow(row []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range row {
		h = mix64(h ^ uint64(v))
	}
	return h
}

func equalRows(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashIndex chains row numbers by 64-bit hash without a slice per
// hash: an open-addressed table of slots, one per distinct hash, plus
// one next link per row, so a hash's rows are walked in insertion
// order. Callers keep the rows themselves (an arena indexed by row
// number) and verify collisions against them.
type hashIndex struct {
	slots []hashSlot
	next  []int32 // per row: 1 + the next row under the same hash, or 0
	used  int
}

// hashSlot holds one hash's chain as 1 + row number at both ends;
// first == 0 marks an empty slot.
type hashSlot struct {
	hash        uint64
	first, last int32
}

// rows returns the number of rows added.
func (x *hashIndex) rows() int { return len(x.next) }

// head returns 1 + the first row added under h, or 0 if there is none;
// next[r-1] continues the chain from r.
func (x *hashIndex) head(h uint64) int32 {
	if len(x.slots) == 0 {
		return 0
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; x.slots[i].first != 0; i = (i + 1) & mask {
		if x.slots[i].hash == h {
			return x.slots[i].first
		}
	}
	return 0
}

// add appends row number rows() under hash h.
func (x *hashIndex) add(h uint64) {
	if 4*(x.used+1) > 3*len(x.slots) {
		x.grow()
	}
	r := int32(len(x.next)) + 1
	x.next = append(x.next, 0)
	mask := uint64(len(x.slots) - 1)
	i := h & mask
	for ; x.slots[i].first != 0; i = (i + 1) & mask {
		if s := &x.slots[i]; s.hash == h {
			x.next[s.last-1] = r
			s.last = r
			return
		}
	}
	x.slots[i] = hashSlot{hash: h, first: r, last: r}
	x.used++
}

// reset empties the index, keeping its storage for the next fill.
func (x *hashIndex) reset() {
	clear(x.slots)
	x.next = x.next[:0]
	x.used = 0
}

// grow doubles the slot table and re-places the occupied slots.
func (x *hashIndex) grow() {
	old := x.slots
	x.slots = make([]hashSlot, max(16, 2*len(old)))
	mask := uint64(len(x.slots) - 1)
	for _, s := range old {
		if s.first == 0 {
			continue
		}
		i := s.hash & mask
		for x.slots[i].first != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}

// rowSet is an exact duplicate detector: rows chain by 64-bit hash and
// collisions are resolved by comparing against an arena of inserted
// rows, so no false merges occur.
type rowSet struct {
	width int
	index hashIndex
	arena []int64
}

func newRowSet(width int) *rowSet {
	return &rowSet{width: width}
}

// insert adds row if unseen, reporting whether it was new.
func (s *rowSet) insert(row []int64) bool {
	h := hashRow(row)
	for r := s.index.head(h); r != 0; r = s.index.next[r-1] {
		off := int(r-1) * s.width
		if equalRows(s.arena[off:off+s.width], row) {
			return false
		}
	}
	s.index.add(h)
	s.arena = append(s.arena, row...)
	return true
}

// reset empties the set, keeping its storage.
func (s *rowSet) reset() {
	s.index.reset()
	s.arena = s.arena[:0]
}

// --- source operators ---

// singletonOp emits one all-zero row: the seed of a pipelined plan
// whose first step binds its own columns.
type singletonOp struct {
	opBase
	done bool
	zero []int64
}

func newSingleton(schema []string) *singletonOp {
	return &singletonOp{
		opBase: opBase{name: "singleton", schema: schema},
		zero:   make([]int64, len(schema)),
	}
}

func (o *singletonOp) Open() {
	o.resetStats()
	o.done = false
}

func (o *singletonOp) Next(out *Batch) bool {
	out.Reset()
	if o.done {
		return false
	}
	o.done = true
	out.Append(o.zero)
	return o.yield(out)
}

func (o *singletonOp) Close()               {}
func (o *singletonOp) Children() []Operator { return nil }

// scanOp is a source table scan: it streams a whole concept table (one
// column) or role table (two columns, or one for the R(x,x) diagonal)
// into fresh full-width rows.
type scanOp struct {
	opBase
	db   *DB
	join *atomJoin // unbound atom describing what to scan

	zero    []int64
	members []int64    // concept scan / diagonal
	pairs   [][2]int64 // role scan
	pos     int
}

func newScan(schema []string, j *atomJoin, db *DB) *scanOp {
	return &scanOp{
		opBase: opBase{name: "scan(" + j.pred + ")", schema: schema},
		db:     db,
		join:   j,
		zero:   make([]int64, len(schema)),
	}
}

func (o *scanOp) Open() {
	o.resetStats()
	o.pos = 0
	o.members, o.pairs = nil, nil
	switch {
	case o.join.arity == 1:
		o.members = o.db.ConceptMembers(o.join.pred)
	case o.join.sameVar:
		for _, p := range rolePairsAll(o.db, o.join.pred) {
			if p[0] == p[1] {
				o.members = append(o.members, p[0])
			}
		}
	default:
		o.pairs = rolePairsAll(o.db, o.join.pred)
	}
}

func (o *scanOp) Next(out *Batch) bool {
	out.Reset()
	if o.members != nil || o.join.arity == 1 || o.join.sameVar {
		for o.pos < len(o.members) && !out.Full() {
			r := out.Append(o.zero)
			r[o.join.s.col] = o.members[o.pos]
			o.pos++
		}
		return o.yield(out)
	}
	for o.pos < len(o.pairs) && !out.Full() {
		p := o.pairs[o.pos]
		r := out.Append(o.zero)
		r[o.join.s.col] = p[0]
		r[o.join.o.col] = p[1]
		o.pos++
	}
	return o.yield(out)
}

func (o *scanOp) Close() {}

func (o *scanOp) Children() []Operator { return nil }

// rolePairsAll materializes the pair list of a role once per operator:
// the simple layout returns the stored slice for free; the RDF layout
// pays one DPH sweep instead of one per input row.
func rolePairsAll(db *DB, pred string) [][2]int64 {
	if db.Layout != LayoutRDF {
		if t := db.roles[pred]; t != nil {
			return t.Pairs
		}
		return nil
	}
	var out [][2]int64
	db.RolePairs(pred, func(s, o int64) { out = append(out, [2]int64{s, o}) })
	return out
}

// --- atom joining (shared by scan/filter/join) ---

// termRef is a compiled atom argument: a constant (or parameter) or a
// column of the pipeline's row layout, with the bound-ness the planner
// established for this step. A constant reads the run's argument slot
// slot: every Open sets its id and absence anew (atomJoin.open).
type termRef struct {
	constID int64
	col     int
	slot    int32 // the constant's argument slot (run.slot), when isConst
	isConst bool
	absent  bool // the constant is not in the dictionary
	bound   bool
}

func (t termRef) isBound() bool { return t.isConst || t.bound }

func (t termRef) value(row []int64) int64 {
	if t.isConst {
		return t.constID
	}
	return row[t.col]
}

// atomJoin is the compiled form of joining the pipeline's rows with one
// atom through the layout-dispatched access paths.
type atomJoin struct {
	db      *DB
	pred    string
	arity   int
	s, o    termRef
	sameVar bool
	// dead marks an atom with a constant absent from the dictionary this
	// run: it can match nothing.
	dead bool
	// exists marks an existence probe: one side is bound and the other
	// is a variable nothing after this step reads (markExistential), so
	// the atom only checks that the bound side has a neighbour.
	exists bool
	// args is the run's bound arguments when the atom has a constant.
	args *boundArgs
	// The atom's table on the simple layout, resolved at every Open;
	// nil for an absent predicate, which the tables' nil-receiver guards
	// read as empty. Unused on the RDF layout.
	concept *ConceptTable
	role    *RoleTable

	// cached full role scan (built lazily, once per Open of the
	// operator, for mid-pipeline cross products).
	scanPairs   [][2]int64
	scanDiag    []int64
	scansLoaded bool
}

// open readies the atom for one run, at its operator's Open: it
// resolves the atom's table (simple layout), binds its constants to the
// run's ids — one absent from the dictionary kills the atom for the run
// — and drops the cached full scan. So a re-opened tree reads the
// database as it is now: a pooled tree outlives Finalize, which
// publishes pending facts, and every write, the one that creates a
// table included.
func (j *atomJoin) open() {
	if j.db.Layout != LayoutRDF {
		if j.arity == 1 {
			j.concept = j.db.Concept(j.pred)
		} else {
			j.role = j.db.Role(j.pred)
		}
	}
	for _, t := range []*termRef{&j.s, &j.o} {
		if t.isConst {
			id, ok := j.args.lookup(int(t.slot))
			t.constID, t.absent = id, !ok
		}
	}
	j.dead = j.s.absent || j.o.absent
	j.scansLoaded = false
	j.scanPairs = nil
	j.scanDiag = j.scanDiag[:0]
}

// fullyBound reports whether the atom only checks already-bound values.
func (j *atomJoin) fullyBound() bool {
	if j.arity == 1 {
		return j.s.isBound()
	}
	return j.s.isBound() && (j.o.isBound() || j.sameVar)
}

// filters reports whether the atom only decides whether a row passes —
// it is fully bound or an existence probe — so it never extends a row.
func (j *atomJoin) filters() bool { return j.exists || j.fullyBound() }

// unbound reports whether no argument is bound — a source scan.
func (j *atomJoin) unbound() bool {
	if j.arity == 1 {
		return !j.s.isBound()
	}
	return !j.s.isBound() && !j.o.isBound()
}

// The per-row probes: the resolved table on the simple layout, the
// DB's layout dispatch on the RDF one.

func (j *atomJoin) conceptContains(id int64) bool {
	if j.db.Layout == LayoutRDF {
		return j.db.ConceptContains(j.pred, id)
	}
	return j.concept.Contains(id)
}

func (j *atomJoin) roleContains(s, o int64) bool {
	if j.db.Layout == LayoutRDF {
		return j.db.RoleContains(j.pred, s, o)
	}
	return j.role.ContainsPair(s, o)
}

func (j *atomJoin) roleObjects(s int64) []int64 {
	if j.db.Layout == LayoutRDF {
		return j.db.RoleObjects(j.pred, s)
	}
	return j.role.Objects(s)
}

func (j *atomJoin) roleSubjects(o int64) []int64 {
	if j.db.Layout == LayoutRDF {
		return j.db.RoleSubjects(j.pred, o)
	}
	return j.role.Subjects(o)
}

// keep evaluates a filtering atom (filters) against one row: a probe
// passes it when the bound side has at least one neighbour.
func (j *atomJoin) keep(row []int64) bool {
	if j.dead {
		return false
	}
	if j.arity == 1 {
		return j.conceptContains(j.s.value(row))
	}
	switch {
	case j.exists && j.s.isBound():
		return len(j.roleObjects(j.s.value(row))) > 0
	case j.exists:
		return len(j.roleSubjects(j.o.value(row))) > 0
	}
	s := j.s.value(row)
	o := s
	if !j.sameVar {
		o = j.o.value(row)
	}
	return j.roleContains(s, o)
}

// matchSet is one row's pending expansions: either keep copies of the
// row unchanged, or vals written to column wc1, or pairs written to
// columns (wc1, wc2).
type matchSet struct {
	keep     int
	vals     []int64
	pairs    [][2]int64
	wc1, wc2 int
}

func (m matchSet) count() int {
	if m.pairs != nil {
		return len(m.pairs)
	}
	if m.vals != nil {
		return len(m.vals)
	}
	return m.keep
}

// matches computes the expansions of one input row through this atom.
func (j *atomJoin) matches(row []int64) matchSet {
	if j.dead {
		return matchSet{}
	}
	if j.filters() {
		if j.keep(row) {
			return matchSet{keep: 1}
		}
		return matchSet{}
	}
	if j.arity == 1 {
		return matchSet{vals: j.db.ConceptMembers(j.pred), wc1: j.s.col}
	}
	sB, oB := j.s.isBound(), j.o.isBound()
	switch {
	case sB:
		return matchSet{vals: j.roleObjects(j.s.value(row)), wc1: j.o.col}
	case oB:
		return matchSet{vals: j.roleSubjects(j.o.value(row)), wc1: j.s.col}
	default:
		j.loadScan()
		if j.sameVar {
			return matchSet{vals: j.scanDiag, wc1: j.s.col}
		}
		return matchSet{pairs: j.scanPairs, wc1: j.s.col, wc2: j.o.col}
	}
}

func (j *atomJoin) loadScan() {
	if j.scansLoaded {
		return
	}
	j.scansLoaded = true
	pairs := rolePairsAll(j.db, j.pred)
	if j.sameVar {
		for _, p := range pairs {
			if p[0] == p[1] {
				j.scanDiag = append(j.scanDiag, p[0])
			}
		}
		return
	}
	j.scanPairs = pairs
}

// --- filter ---

// filterOp keeps the rows that satisfy any of its atoms (several
// atoms = one SCQ block), each fully bound or an existence probe:
// probe access, one output row per passing input row.
type filterOp struct {
	opBase
	child Operator
	alts  []*atomJoin
	in    *Batch
}

func newFilter(child Operator, alts []*atomJoin) *filterOp {
	return &filterOp{
		opBase: opBase{name: "filter(" + predNames(alts) + ")", schema: child.Schema()},
		child:  child,
		alts:   alts,
	}
}

// predNames lists the atoms' predicates for an operator's name.
func predNames(alts []*atomJoin) string {
	preds := make([]string, len(alts))
	for i, a := range alts {
		preds[i] = a.pred
	}
	return strings.Join(preds, "|")
}

func (o *filterOp) Open() {
	o.resetStats()
	for _, a := range o.alts {
		a.open()
	}
	takeBatch(&o.in, len(o.child.Schema()))
	o.child.Open()
}

func (o *filterOp) Next(out *Batch) bool {
	out.Reset()
	for out.Len() == 0 {
		if !o.child.Next(o.in) {
			return false
		}
		for i := 0; i < o.in.Len(); i++ {
			row := o.in.Row(i)
			for _, a := range o.alts {
				if a.keep(row) {
					out.Append(row)
					break
				}
			}
		}
	}
	return o.yield(out)
}

func (o *filterOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.child.Close()
	releaseBatch(&o.in)
}

func (o *filterOp) Children() []Operator { return []Operator{o.child} }

// --- index-nested-loop join ---

// joinOp extends each input row with the matches of one or more
// alternative atoms (several alternatives = one SCQ block), probing the
// forward/reverse indexes for bound arguments and scanning otherwise.
type joinOp struct {
	opBase
	child Operator
	alts  []*atomJoin

	in     *Batch
	inPos  int
	curRow []int64
	altIdx int

	pend    matchSet
	pendIdx int
}

func newJoin(child Operator, alts []*atomJoin) *joinOp {
	return &joinOp{
		opBase: opBase{name: "join(" + predNames(alts) + ")", schema: child.Schema()},
		child:  child,
		alts:   alts,
	}
}

func (o *joinOp) Open() {
	o.resetStats()
	takeBatch(&o.in, len(o.child.Schema()))
	o.inPos, o.altIdx = 0, 0
	o.curRow = nil
	o.pend, o.pendIdx = matchSet{}, 0
	for _, a := range o.alts {
		a.open()
	}
	o.child.Open()
}

func (o *joinOp) Next(out *Batch) bool {
	out.Reset()
	for {
		// Drain the pending expansions of (current row, current atom).
		if o.pendIdx < o.pend.count() {
			if out.Full() {
				return o.yield(out)
			}
			o.emitRun(out)
			continue
		}
		// Next alternative atom for the current row.
		if o.curRow != nil {
			if o.altIdx < len(o.alts) {
				o.pend = o.alts[o.altIdx].matches(o.curRow)
				o.pendIdx = 0
				o.altIdx++
				continue
			}
			o.curRow = nil
		}
		// Next row of the current input batch.
		if o.inPos < o.in.Len() {
			o.curRow = o.in.Row(o.inPos)
			o.inPos++
			o.altIdx = 0
			continue
		}
		// Pull the next input batch.
		if !o.child.Next(o.in) {
			return o.yield(out)
		}
		o.inPos = 0
	}
}

// emitRun appends as many pending expansions as out has room for, in
// one tight loop per kind of run.
func (o *joinOp) emitRun(out *Batch) {
	m := &o.pend
	end := min(m.count(), o.pendIdx+DefaultBatchSize-out.Len())
	switch {
	case m.pairs != nil:
		for _, p := range m.pairs[o.pendIdx:end] {
			r := out.Append(o.curRow)
			r[m.wc1], r[m.wc2] = p[0], p[1]
		}
	case m.vals != nil:
		for _, v := range m.vals[o.pendIdx:end] {
			out.Append(o.curRow)[m.wc1] = v
		}
	default:
		for range end - o.pendIdx {
			out.Append(o.curRow)
		}
	}
	o.pendIdx = end
}

func (o *joinOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.child.Close()
	releaseBatch(&o.in)
	o.curRow = nil // a row of the released batch
}

func (o *joinOp) Children() []Operator { return []Operator{o.child} }

// --- projection ---

// projectOp maps pipeline rows onto the query head: source columns for
// head variables, the ids Open binds for head constants and
// parameters. A head constant absent from the dictionary makes the run
// match nothing (dead); so does a head variable absent from the
// pipeline's schema (unbound).
type projectOp struct {
	opBase
	child Operator
	// srcCols[i] ≥ 0 reads that pipeline column; a negative one, -1-s,
	// emits consts[i], the id Open binds from argument slot s. consts
	// is nil when the head has no constant.
	srcCols []int
	consts  []int64
	args    *boundArgs
	unbound bool
	dead    bool

	in      *Batch
	scratch []int64
}

func newProject(child Operator, schema []string, srcCols []int) *projectOp {
	return &projectOp{
		opBase:  opBase{name: "project", schema: schema},
		child:   child,
		srcCols: srcCols,
		scratch: make([]int64, len(schema)),
	}
}

func (o *projectOp) Open() {
	o.resetStats()
	o.dead = o.unbound
	for c, src := range o.srcCols {
		if src < 0 {
			id, ok := o.args.lookup(-1 - src)
			o.consts[c], o.dead = id, o.dead || !ok
		}
	}
	takeBatch(&o.in, len(o.child.Schema()))
	o.child.Open()
}

func (o *projectOp) Next(out *Batch) bool {
	out.Reset()
	if o.dead {
		return false
	}
	for out.Len() == 0 {
		if !o.child.Next(o.in) {
			return false
		}
		for i := 0; i < o.in.Len(); i++ {
			row := o.in.Row(i)
			for c, src := range o.srcCols {
				if src >= 0 {
					o.scratch[c] = row[src]
				} else {
					o.scratch[c] = o.consts[c]
				}
			}
			out.Append(o.scratch)
		}
	}
	return o.yield(out)
}

func (o *projectOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.child.Close()
	releaseBatch(&o.in)
}
func (o *projectOp) Children() []Operator { return []Operator{o.child} }

// --- streaming distinct ---

// distinctOp streams DISTINCT: rows hash into a 64-bit set (collisions
// verified exactly against an arena), and only first occurrences pass.
type distinctOp struct {
	opBase
	child Operator
	in    *Batch
	set   *rowSet
}

func newDistinct(child Operator) *distinctOp {
	return &distinctOp{
		opBase: opBase{name: "distinct", schema: child.Schema()},
		child:  child,
	}
}

func (o *distinctOp) Open() {
	o.resetStats()
	takeBatch(&o.in, len(o.child.Schema()))
	if o.set == nil {
		o.set = newRowSet(len(o.child.Schema()))
	} else {
		o.set.reset()
	}
	o.child.Open()
}

func (o *distinctOp) Next(out *Batch) bool {
	out.Reset()
	for out.Len() == 0 {
		if !o.child.Next(o.in) {
			return false
		}
		for i := 0; i < o.in.Len(); i++ {
			row := o.in.Row(i)
			if o.set.insert(row) {
				out.Append(row)
			}
		}
	}
	return o.yield(out)
}

func (o *distinctOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.child.Close()
	releaseBatch(&o.in)
}
func (o *distinctOp) Children() []Operator { return []Operator{o.child} }

// --- sequential union ---

// unionOp concatenates its children's streams (UNION ALL; wrap in
// distinctOp for UNION). It opens one arm at a time, when it reaches
// it, and closes the arm once exhausted, so only the current arm holds
// batch storage — the parallel union's workers do the same.
type unionOp struct {
	opBase
	children []Operator
	idx      int
	armOpen  bool // children[idx] is open
}

func newUnion(schema []string, children []Operator) *unionOp {
	return &unionOp{opBase: opBase{name: "union", schema: schema}, children: children}
}

func (o *unionOp) Open() {
	o.resetStats()
	o.idx = 0
	o.armOpen = false
}

func (o *unionOp) Next(out *Batch) bool {
	out.Reset()
	for o.idx < len(o.children) {
		arm := o.children[o.idx]
		if !o.armOpen {
			arm.Open()
			o.armOpen = true
		}
		if arm.Next(out) {
			return o.yield(out)
		}
		arm.Close()
		o.armOpen = false
		o.idx++
	}
	return false
}

// Close closes the arm still open after an early stop; the arms already
// exhausted, and those never reached, are no-ops through their own
// closeOnce guard.
func (o *unionOp) Close() {
	if !o.closeOnce() {
		return
	}
	for _, c := range o.children {
		c.Close()
	}
}

func (o *unionOp) Children() []Operator { return o.children }

// --- draining and diagnostics ---

// Drain runs a compiled pipeline to completion and materializes its
// output as a Relation — the bridge to the materialized-relation world
// of HashJoin, views, and result decoding. The rows share one backing
// array, each capped at its own width.
func Drain(op Operator) *Relation {
	op.Open()
	defer op.Close()
	width := len(op.Schema())
	b := getBatch(width)
	defer putBatch(b)
	var flat []int64
	n := 0
	for op.Next(b) {
		flat = append(flat, b.data[:b.Len()*width]...)
		n += b.Len()
	}
	rel := &Relation{Schema: op.Schema()}
	if n > 0 {
		rel.Rows = make([][]int64, n)
		for i := range rel.Rows {
			rel.Rows[i] = flat[i*width : (i+1)*width : (i+1)*width]
		}
	}
	return rel
}

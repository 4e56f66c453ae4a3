package engine

import (
	"fmt"
	"runtime"
	"sync"
)

// Streaming hash join for cover fragments. A JUCQ/JUSCQ plan evaluates
// a cover as the join of its fragment reformulations (Section 3).
// hashJoinOp runs that join in the operator model: the build-side
// fragments are whole streaming pipelines drained into compact hash
// tables by parallel workers during Open, and the driving (largest)
// fragment is then probed in one streaming pass — no fragment Relation
// is ever materialized, and probe work overlaps the tail of the build
// phase through the usual batch flow.

// clampWorkers bounds a worker request to the machine and the number of
// runnable tasks — the shared budget policy of unionParallelOp and
// hashJoinOp.
func clampWorkers(workers, tasks int) int {
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// buildTable is one build side of the join chain: the child pipeline's
// rows in an arena, chained by the 64-bit hash of the join columns the
// fragment shares with the output schema accumulated so far.
type buildTable struct {
	child Operator
	width int
	// join pairs (output column, build column); empty means cross
	// product (fragments sharing no variable).
	join [][2]int
	// extra build columns appended to the output schema, written at
	// outBase.
	extra   []int
	outBase int

	arena []int64
	index hashIndex
}

// load drains the child pipeline into the hash table. The child is
// opened and closed here, exactly once per execution.
func (bt *buildTable) load() {
	bt.arena = bt.arena[:0]
	bt.index.reset()
	bt.child.Open()
	defer bt.child.Close()
	b := getBatch(bt.width)
	defer putBatch(b)
	for bt.child.Next(b) {
		for i := 0; i < b.Len(); i++ {
			row := b.Row(i)
			h := uint64(0x9e3779b97f4a7c15)
			for _, jc := range bt.join {
				h = mix64(h ^ uint64(row[jc[1]]))
			}
			bt.index.add(h)
			bt.arena = append(bt.arena, row...)
		}
	}
}

// rowAt returns build row r, numbered from 1 as hashIndex chains them.
// A zero-width (boolean fragment) row is empty, so the arena stays
// empty and only the index counts the rows.
func (bt *buildTable) rowAt(r int32) []int64 {
	off := int(r-1) * bt.width
	return bt.arena[off : off+bt.width]
}

// probeHash hashes the already-bound output columns this table joins on.
func (bt *buildTable) probeHash(out []int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, jc := range bt.join {
		h = mix64(h ^ uint64(out[jc[0]]))
	}
	return h
}

func (bt *buildTable) equalOn(out, brow []int64) bool {
	for _, jc := range bt.join {
		if out[jc[0]] != brow[jc[1]] {
			return false
		}
	}
	return true
}

// hashJoinOp joins one probe pipeline against n build pipelines on
// identically named schema columns (the JUCQ fragment-join semantics).
// Build tables are loaded during Open by up to `workers` goroutines,
// one per build fragment; Next then streams the probe child through the
// chain of tables, expanding each probe row into the join results.
type hashJoinOp struct {
	opBase
	probe   Operator
	builds  []*buildTable
	workers int

	in      *Batch
	inPos   int
	scratch []int64
	pend    []int64 // expanded rows of the current probe row, width len(schema)
	pendPos int
	dead    bool // some build side is empty: no row can join
}

// NewHashJoin builds the streaming fragment join. children[probeIdx]
// is the driving (probe) side; every other child becomes a build table,
// joined left-to-right in the order given by buildOrder (indexes into
// children). The output schema is the probe schema followed by each
// build's so-far-unseen columns. workers bounds the goroutines draining
// build pipelines during Open (shared-budget clamp with the parallel
// union: capped at GOMAXPROCS and at the number of build sides).
func NewHashJoin(children []Operator, probeIdx int, buildOrder []int, workers int) Operator {
	probe := children[probeIdx]
	schema := append([]string(nil), probe.Schema()...)
	colOf := map[string]int{}
	for i, v := range schema {
		if _, ok := colOf[v]; !ok {
			colOf[v] = i
		}
	}
	builds := make([]*buildTable, 0, len(buildOrder))
	for _, bi := range buildOrder {
		c := children[bi]
		bt := &buildTable{child: c, width: len(c.Schema()), outBase: len(schema)}
		for j, v := range c.Schema() {
			if oc, ok := colOf[v]; ok {
				bt.join = append(bt.join, [2]int{oc, j})
			} else {
				colOf[v] = len(schema)
				schema = append(schema, v)
				bt.extra = append(bt.extra, j)
			}
		}
		builds = append(builds, bt)
	}
	return &hashJoinOp{
		opBase:  opBase{name: fmt.Sprintf("hash-join(%d)", len(builds)), schema: schema},
		probe:   probe,
		builds:  builds,
		workers: workers,
		scratch: make([]int64, len(schema)),
	}
}

func (o *hashJoinOp) Open() {
	o.resetStats()
	takeBatch(&o.in, len(o.probe.Schema()))
	o.inPos = 0
	o.pend = o.pend[:0]
	o.pendPos = 0
	o.dead = false

	// The probe pipeline opens first: a parallel union there starts
	// producing into its buffers while the build tables load.
	o.probe.Open()

	w := clampWorkers(o.workers, len(o.builds))
	if w <= 1 {
		for _, bt := range o.builds {
			bt.load()
		}
	} else {
		jobs := make(chan *buildTable, len(o.builds))
		for _, bt := range o.builds {
			jobs <- bt
		}
		close(jobs)
		var wg sync.WaitGroup
		for i := 0; i < w; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for bt := range jobs {
					bt.load()
				}
			}()
		}
		wg.Wait()
	}
	for _, bt := range o.builds {
		if bt.index.rows() == 0 {
			o.dead = true
		}
	}
}

func (o *hashJoinOp) Next(out *Batch) bool {
	out.Reset()
	if o.dead {
		return false
	}
	width := len(o.schema)
	for {
		// Flush pending expansions of the current probe row.
		for o.pendPos*width < len(o.pend) && !out.Full() {
			out.Append(o.pend[o.pendPos*width : (o.pendPos+1)*width])
			o.pendPos++
		}
		if out.Full() {
			return o.yield(out)
		}
		// Advance to the next probe row.
		if o.inPos >= o.in.Len() {
			if !o.probe.Next(o.in) {
				return o.yield(out)
			}
			o.inPos = 0
			continue
		}
		copy(o.scratch, o.in.Row(o.inPos))
		o.inPos++
		o.pend = o.pend[:0]
		o.pendPos = 0
		o.expand(0)
	}
}

// expand walks the build chain for the probe row currently in scratch,
// appending every full join result to pend. Each level writes its extra
// columns into a disjoint range of scratch, so a single scratch row
// backs the whole traversal.
func (o *hashJoinOp) expand(level int) {
	if level == len(o.builds) {
		o.pend = append(o.pend, o.scratch...)
		return
	}
	bt := o.builds[level]
	for r := bt.index.head(bt.probeHash(o.scratch)); r != 0; r = bt.index.next[r-1] {
		brow := bt.rowAt(r)
		if !bt.equalOn(o.scratch, brow) {
			continue
		}
		for k, c := range bt.extra {
			o.scratch[bt.outBase+k] = brow[c]
		}
		o.expand(level + 1)
	}
}

// Close closes the probe pipeline and every build child. Build
// pipelines were already drained and closed by load() during Open, so
// their Close here is a no-op through the closeOnce guard — it exists
// so the operator honors the contract (Close closes everything
// Children reports).
func (o *hashJoinOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.probe.Close()
	for _, bt := range o.builds {
		bt.child.Close()
	}
	releaseBatch(&o.in)
}

func (o *hashJoinOp) Children() []Operator {
	out := []Operator{o.probe}
	for _, bt := range o.builds {
		out = append(out, bt.child)
	}
	return out
}

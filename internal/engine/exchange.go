package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The shuffle exchange: the repartition operator of classic
// distributed query processing, scoped to the shard backend's
// in-process shards. NewExchange takes one source pipeline per shard
// and returns one endpoint operator per shard; every row a source
// produces is routed to the endpoint of the shard owning
// ShardOf(row[key]), so the operator consuming endpoint i sees exactly
// the rows whose key hashes to shard i — a downstream join on that key
// runs shard-local with no broadcast.
//
// Rows travel in batches over bounded channels (exchangeChanCap deep),
// so a slow consumer backpressures the producers instead of buffering
// the whole stream. Producers come from the shared clampWorkers
// budget; each drains whole source pipelines, staging rows into
// per-destination batches and shipping them as they fill.
//
// Lifecycle: the hub starts lazily on the first endpoint Open and is
// torn down cooperatively. An endpoint that closes early discards its
// channel (producers drop batches for it instead of blocking); when
// every endpoint has discarded, the hub's stop channel halts the
// producers mid-stream. Endpoint Close then waits for its own source's
// producer to finish before closing the source — the close is
// sequenced after the producer's deferred Close, never concurrent with
// it.

// exchangeChanCap bounds each destination channel in batches. Small on
// purpose: the exchange exists to stream, not to buffer a
// materialized partition.
const exchangeChanCap = 4

// Exchange is the shared hub behind the per-shard endpoint operators.
// Exported for the shard backend, which needs the rows-moved counters
// for EXPLAIN after the run.
type Exchange struct {
	sources []Operator
	keyCol  int
	key     string
	workers int
	n       int
	width   int

	chans   []chan *Batch   // hub -> endpoint i
	dstop   []chan struct{} // closed when endpoint i discards
	dOnce   []sync.Once
	srcDone []chan struct{} // closed when source i's producer is done
	stop    chan struct{}   // closed when every endpoint discarded
	ndisc   atomic.Int32
	start   sync.Once
	started atomic.Bool
	stopped sync.Once
	wg      sync.WaitGroup

	sent []atomic.Int64 // rows source i routed to a different shard
	recv []atomic.Int64 // rows delivered to endpoint i
}

// NewExchange builds a hub over one source pipeline per shard and
// returns it with the per-shard endpoints. key must be a column of the
// shared source schema; workers bounds the producer pool (clamped to
// GOMAXPROCS and the shard count).
func NewExchange(sources []Operator, key string, workers int) (*Exchange, []Operator, error) {
	n := len(sources)
	if n < 2 {
		return nil, nil, fmt.Errorf("engine: exchange needs at least 2 shards, have %d", n)
	}
	schema := sources[0].Schema()
	keyCol := -1
	for i, v := range schema {
		if v == key {
			keyCol = i
			break
		}
	}
	if keyCol < 0 {
		return nil, nil, fmt.Errorf("engine: exchange key %q not in source schema %v", key, schema)
	}
	h := &Exchange{
		sources: sources,
		keyCol:  keyCol,
		key:     key,
		workers: workers,
		n:       n,
		width:   len(schema),
		chans:   make([]chan *Batch, n),
		dstop:   make([]chan struct{}, n),
		dOnce:   make([]sync.Once, n),
		srcDone: make([]chan struct{}, n),
		stop:    make(chan struct{}),
		sent:    make([]atomic.Int64, n),
		recv:    make([]atomic.Int64, n),
	}
	for i := 0; i < n; i++ {
		h.chans[i] = make(chan *Batch, exchangeChanCap)
		h.dstop[i] = make(chan struct{})
		h.srcDone[i] = make(chan struct{})
	}
	eps := make([]Operator, n)
	for i := 0; i < n; i++ {
		eps[i] = &exchangeOp{
			opBase: opBase{name: "exchange", schema: schema},
			hub:    h,
			child:  sources[i],
			idx:    i,
		}
	}
	return h, eps, nil
}

// Key returns the repartition column name.
func (h *Exchange) Key() string { return h.key }

// SentFrom returns how many rows source i routed to a shard other than
// its own.
func (h *Exchange) SentFrom(i int) int64 { return h.sent[i].Load() }

// DeliveredTo returns how many rows were delivered to endpoint i
// (local and remote).
func (h *Exchange) DeliveredTo(i int) int64 { return h.recv[i].Load() }

// RowsMoved returns the total rows that crossed shards.
func (h *Exchange) RowsMoved() int64 {
	var total int64
	for i := range h.sent {
		total += h.sent[i].Load()
	}
	return total
}

// run starts the producer pool exactly once (the first endpoint Open).
func (h *Exchange) run() {
	h.start.Do(func() {
		h.started.Store(true)
		jobs := make(chan int, h.n)
		for i := 0; i < h.n; i++ {
			jobs <- i
		}
		close(jobs)
		for w := 0; w < clampWorkers(h.workers, h.n); w++ {
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				for i := range jobs {
					if !h.halted() {
						h.drainSource(i)
					}
					close(h.srcDone[i])
				}
			}()
		}
		go func() {
			h.wg.Wait()
			for _, ch := range h.chans {
				close(ch)
			}
		}()
	})
}

func (h *Exchange) halted() bool {
	select {
	case <-h.stop:
		return true
	default:
		return false
	}
}

// discard marks endpoint d as no longer consuming: producers drop its
// batches, and once every endpoint has discarded the whole hub halts.
func (h *Exchange) discard(d int) {
	h.dOnce[d].Do(func() {
		close(h.dstop[d])
		if int(h.ndisc.Add(1)) == h.n {
			h.stopped.Do(func() { close(h.stop) })
		}
	})
}

// drainSource runs source idx to completion, routing its rows into
// per-destination staging batches and shipping each as it fills. All
// its batches come from the engine's batch pool.
func (h *Exchange) drainSource(idx int) {
	in := h.sources[idx]
	in.Open()
	defer in.Close()
	staging := make([]*Batch, h.n)
	b := getBatch(h.width)
	defer putBatch(b)
	for in.Next(b) {
		for r := 0; r < b.Len(); r++ {
			row := b.Row(r)
			d := ShardOf(row[h.keyCol], h.n)
			if d != idx {
				h.sent[idx].Add(1)
			}
			st := staging[d]
			if st == nil {
				st = getBatch(h.width)
				staging[d] = st
			}
			st.Append(row)
			if st.Full() {
				h.ship(d, st)
				staging[d] = nil
			}
		}
		if h.halted() {
			break
		}
	}
	for d, st := range staging {
		if st != nil && st.Len() > 0 {
			h.ship(d, st)
		}
	}
}

// ship hands a staged batch to destination d, or recycles it if d has
// discarded.
func (h *Exchange) ship(d int, b *Batch) {
	rows := int64(b.Len()) // before the send: the consumer owns b after
	select {
	case h.chans[d] <- b:
		h.recv[d].Add(rows)
	case <-h.dstop[d]:
		putBatch(b)
	}
}

// exchangeOp is the per-shard endpoint: a plain single-consumer
// operator whose stream is its shard's partition of every source's
// output.
type exchangeOp struct {
	opBase
	hub   *Exchange
	child Operator // this endpoint's shard-local source (hub opens it)
	idx   int
}

func (o *exchangeOp) Open() {
	o.resetStats()
	o.hub.run()
}

func (o *exchangeOp) Next(out *Batch) bool {
	b, ok := <-o.hub.chans[o.idx]
	if !ok {
		return false
	}
	out.CopyFrom(b)
	putBatch(b)
	return o.yield(out)
}

func (o *exchangeOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.hub.discard(o.idx)
	// Wait for this endpoint's source producer: its deferred Close (or
	// never-opened skip) happens before srcDone closes, so the close
	// below is sequenced after it — a guarded no-op, never a race. A
	// hub that never started (the tree was torn down without Open —
	// every endpoint Open precedes any endpoint Close otherwise) has no
	// producer to wait for.
	if o.hub.started.Load() {
		<-o.hub.srcDone[o.idx]
	}
	o.child.Close()
}

func (o *exchangeOp) Children() []Operator { return []Operator{o.child} }

package engine

import (
	"sync"
)

// unionParallelOp is the parallel union: an engine operator that owns a
// pool of worker goroutines, each draining whole child pipelines and
// handing finished batches to the single consumer. This replaces the
// old ExecUCQParallel special case — parallel union is now an engine
// capability any compiled plan can use (neither Postgres 9.3 nor DB2
// 10.5 parallelized union arms; the ablation benchmarks use it to show
// how much of the UCQ penalty is latency rather than total work). The
// database is read-only during execution, so concurrent arm evaluation
// is safe. Output batch order is nondeterministic across children; set
// semantics are unaffected (wrap in distinct, or sort after decode).
type unionParallelOp struct {
	opBase
	children []Operator
	workers  int
	// perChild pins one dedicated goroutine to every child instead of
	// pulling children from a shared job queue (NewUnionFanIn).
	perChild bool

	results chan *Batch
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// NewUnionParallel builds a parallel union over children with up to
// workers goroutines (the shared clampWorkers budget: capped at
// GOMAXPROCS and at len(children)). With workers <= 1 or fewer than
// two children, it degrades to the sequential union.
func NewUnionParallel(schema []string, children []Operator, workers int) Operator {
	workers = clampWorkers(workers, len(children))
	if workers <= 1 || len(children) <= 1 {
		return newUnion(schema, children)
	}
	return &unionParallelOp{
		opBase:   opBase{name: "union-parallel", schema: schema},
		children: children,
		workers:  workers,
	}
}

// NewUnionFanIn builds a parallel union with exactly one dedicated
// goroutine per child, bypassing the GOMAXPROCS clamp. The shard
// backend's exchange path needs this shape: every child consumes
// exchange endpoints fed by bounded channels, so a child left waiting
// for a pooled worker would never drain its channel and the producers
// filling it would stall the children that do have workers. Goroutines
// beyond GOMAXPROCS are a scheduling matter, not a correctness one — a
// blocked consumer costs nothing.
func NewUnionFanIn(schema []string, children []Operator) Operator {
	if len(children) <= 1 {
		return newUnion(schema, children)
	}
	return &unionParallelOp{
		opBase:   opBase{name: "union-fanin", schema: schema},
		children: children,
		workers:  len(children),
		perChild: true,
	}
}

func (o *unionParallelOp) Open() {
	o.resetStats()
	o.results = make(chan *Batch, o.workers*2)
	o.stop = make(chan struct{})
	o.stopped = sync.Once{}

	if o.perChild {
		for _, c := range o.children {
			o.wg.Add(1)
			go func(c Operator) {
				defer o.wg.Done()
				o.drainChild(c)
			}(c)
		}
	} else {
		jobs := make(chan int, len(o.children))
		for i := range o.children {
			jobs <- i
		}
		close(jobs)

		for w := 0; w < o.workers; w++ {
			o.wg.Add(1)
			go func() {
				defer o.wg.Done()
				for i := range jobs {
					if !o.drainChild(o.children[i]) {
						return // stop requested
					}
				}
			}()
		}
	}
	go func() {
		o.wg.Wait()
		close(o.results)
	}()
}

// drainChild runs one child pipeline to completion, shipping its
// batches, drawn from the engine's batch pool, to the consumer. It
// returns false when the operator was closed early.
func (o *unionParallelOp) drainChild(c Operator) bool {
	c.Open()
	defer c.Close()
	for {
		b := getBatch(len(o.schema))
		if !c.Next(b) {
			putBatch(b)
			return true
		}
		select {
		case o.results <- b:
		case <-o.stop:
			putBatch(b)
			return false
		}
	}
}

func (o *unionParallelOp) Next(out *Batch) bool {
	b, ok := <-o.results
	if !ok {
		return false
	}
	out.CopyFrom(b)
	putBatch(b)
	return o.yield(out)
}

func (o *unionParallelOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.stopped.Do(func() { close(o.stop) })
	// Unblock any producer and wait for the workers to finish, pooling
	// the batches nobody consumed.
	for b := range o.results {
		putBatch(b)
	}
	// The workers have exited (results closes only after wg.Wait), so
	// closing every child here is race-free. Children a worker already
	// drained were closed by drainChild, and children never picked up
	// were never opened — both make this a no-op through their own
	// closeOnce guard. What it catches is the early-close case: a child
	// interrupted mid-stream by the stop channel, whose deferred Close
	// ran, plus any child whose state outlives its worker.
	for _, c := range o.children {
		c.Close()
	}
}

func (o *unionParallelOp) Children() []Operator { return o.children }

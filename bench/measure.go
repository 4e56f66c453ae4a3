package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// sample is one completed read.
type sample struct {
	class int
	lat   time.Duration
	eval  time.Duration
	hit   bool
}

// loopResult is what one closed-loop run of the clients produced.
type loopResult struct {
	reads      []sample
	writes     []time.Duration
	attempted  int
	failed     int
	wall       time.Duration
	allocBytes uint64
}

// client is one closed-loop caller: it sends its next operation only
// after the previous one has completed and been checked.
type client struct {
	stream *opStream
	exec   executor
}

// newClients makes the workload's callers: P for an HTTP workload, one
// otherwise. Their streams carry on across warm-up and window.
func newClients(e *env, in *inputs, seed int64) []client {
	n := 1
	if e.w.HTTP {
		n = P
	}
	cs := make([]client, n)
	for i := range cs {
		cs[i] = client{stream: newOpStream(e.w, in, seed, i), exec: e.executor()}
	}
	return cs
}

func closeClients(cs []client) {
	for _, c := range cs {
		c.exec.close()
	}
}

// runLoop drives every client until the duration has passed or, when
// ops > 0, until the clients have together completed that many
// operations. Answers are checked outside the timed part of each op.
// With a tracer, every op is a root span.
func runLoop(e *env, ref reference, cs []client, d time.Duration, ops int, tr *tracer) loopResult {
	parts := make([]loopResult, len(cs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &parts[i]
			for n := 0; ops == 0 || n < ops/len(cs); n++ {
				if ops == 0 && time.Since(start) >= d {
					return
				}
				o := c.stream.next()
				name := "write"
				if !o.write() {
					name = e.w.Classes[o.Class].Name
				}
				id := tr.start("op:"+name, -1, i<<24|n)
				r := c.exec.do(o)
				tr.end(id)
				part.attempted++
				if o.write() {
					if r.err != nil {
						part.failed++
					}
					part.writes = append(part.writes, r.lat)
					continue
				}
				ok := r.err == nil && ref.check(o, r.tuples)
				if !ok {
					part.failed++
					if part.failed <= 3 {
						fmt.Printf("  FAIL %s: err=%v got=%v\n", o.Text, r.err, digest(r.tuples))
					}
				}
				part.reads = append(part.reads, sample{class: o.Class, lat: r.lat, eval: r.eval, hit: r.hit})
			}
		}()
	}
	wg.Wait()
	out := loopResult{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	out.allocBytes = after.TotalAlloc - before.TotalAlloc
	for _, p := range parts {
		out.reads = append(out.reads, p.reads...)
		out.writes = append(out.writes, p.writes...)
		out.attempted += p.attempted
		out.failed += p.failed
	}
	return out
}

// classStat is one class's share of a window.
type classStat struct {
	Class string  `json:"class"`
	Ops   int     `json:"ops"`
	P50Ms float64 `json:"p50_ms"`
}

// runOutput is one run of one workload.
type runOutput struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"window_s"`
	WarmupS   float64            `json:"warmup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Completed int                `json:"completed"`
	P99Beyond int                `json:"p99_samples_beyond,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Classes   []classStat        `json:"classes,omitempty"`
	// WriteP50Ms is update_churn's AddRoleFact+Finalize median. It is
	// not an end-to-end metric of BENCHMARK.json because the other four
	// workloads never write; db.finalize_ms is its traced twin.
	WriteP50Ms float64 `json:"write_p50_ms,omitempty"`

	spans []span
}

func latenciesMs(reads []sample) []float64 {
	out := make([]float64, len(reads))
	for i, s := range reads {
		out[i] = msOf(s.lat)
	}
	sort.Float64s(out)
	return out
}

// perClass groups the reads' latencies by class, in class order.
func perClass(w *workload, reads []sample) []classStat {
	by := make([][]float64, len(w.Classes))
	for _, s := range reads {
		by[s.class] = append(by[s.class], msOf(s.lat))
	}
	var out []classStat
	for ci, v := range by {
		if len(v) > 0 {
			out = append(out, classStat{Class: w.Classes[ci].Name, Ops: len(v), P50Ms: median(v)})
		}
	}
	return out
}

// timedSetup sets the environment up at least three times, and again
// while the budget lasts, and returns the last one with the median
// set-up time: one set-up of the small workloads takes milliseconds,
// too few to compare across runs.
func timedSetup(w *workload, seed int64, budget time.Duration) (*env, float64, error) {
	var e *env
	var took []float64
	begun := time.Now()
	for i := 0; i < 3 || (i < 101 && time.Since(begun) < budget); i++ {
		if e != nil {
			e.close()
		}
		runtime.GC() // start every repetition from the same heap
		t0 := time.Now()
		var err error
		if e, err = setup(w, seed); err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return e, median(took), nil
}

func heapAllocMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// warmupFor is the untimed run-in before a window: a fifth of it, two
// seconds at most. Every cache the workloads fill is full well within
// that (zipf_serve's 256-entry answer cache in under a second).
func warmupFor(window time.Duration) time.Duration {
	return min(window/5, 2*time.Second)
}

// runUntraced measures the end-to-end metrics of one workload: set-up,
// warm-up, then the window, tracing off.
func runUntraced(w *workload, seed int64, seconds float64) (*runOutput, error) {
	// What earlier workloads of this process left behind is not this
	// one's set-up; in a fresh process the base is about 0.2 MB.
	baseMB := heapAllocMB()
	in := makeInputs(w, seed)
	ref, err := referenceFor(w, in, seed)
	if err != nil {
		return nil, err
	}
	window := time.Duration(seconds * float64(time.Second))
	e, setupS, err := timedSetup(w, seed, min(time.Second, window/10))
	if err != nil {
		return nil, err
	}
	defer e.close()
	heapMB := heapAllocMB() - baseMB

	cs := newClients(e, in, seed)
	defer closeClients(cs)
	warm := runLoop(e, ref, cs, warmupFor(window), 0, nil)
	lr := runLoop(e, ref, cs, window, 0, nil)

	out := &runOutput{Workload: w.Name, Seed: seed, Seconds: lr.wall.Seconds(), WarmupS: warm.wall.Seconds(),
		Attempted: lr.attempted, Failed: lr.failed, Classes: perClass(w, lr.reads)}
	if w.WriteEvery > 0 {
		// The reads were compared with the answers of the unwritten
		// database; make sure the writes did not change them.
		checked, stale, err := stillHolds(e, ref)
		if err != nil {
			return nil, err
		}
		out.Attempted += checked
		out.Failed += stale
		var ws []float64
		for _, d := range lr.writes {
			ws = append(ws, msOf(d))
		}
		out.WriteP50Ms = median(ws)
	}
	out.Completed = out.Attempted - out.Failed

	lat := latenciesMs(lr.reads)
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in %.1f s", w.Name, seconds)
	}
	p50, _ := percentile(lat, 50)
	p99, beyond := percentile(lat, 99)
	out.P99Beyond = beyond
	var medians []float64
	for _, c := range out.Classes {
		medians = append(medians, c.P50Ms)
	}
	out.Metrics = map[string]float64{
		"setup_s":             setupS,
		"lat_p50_ms":          p50,
		"lat_p99_ms":          p99,
		"lat_geomean_ms":      geomean(medians),
		"qps":                 float64(lr.attempted-lr.failed) / lr.wall.Seconds(),
		"alloc_kb_per_op":     float64(lr.allocBytes) / 1024 / float64(lr.attempted),
		"heap_after_setup_mb": heapMB,
	}
	return out, nil
}

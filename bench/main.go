// Command bench is the repository's benchmark: five named workloads
// through the system's public entry points (core.Answerer.AnswerWith,
// POST /query), end-to-end metrics from an untraced window, per-layer
// metrics from a traced run, every answer checked. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload cold_plan --seed 1 --seconds 18 --trace 0   # one run, as BENCHMARK.json's driver does
//	bash bench/run.sh -seed 1          # all five workloads, untraced then traced
//	bash bench/run.sh -check           # the whole benchmark twice; are the two within the bounds?
//	bash bench/run.sh -regen           # rewrite bench/golden/seed-{1,2}.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print one result object as the last line (default: all five, untraced then traced)")
		seed    = flag.Int64("seed", 1, "drives the generated database, the class order, the Zipf draws and the written facts")
		seconds = flag.Float64("seconds", 18, "measured window; the warm-up before it is a fifth of this, two seconds at most")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run")
		short   = flag.Bool("short", false, "smoke: one university, one-second windows, one warm repetition per stage")
		check   = flag.Bool("check", false, "run everything twice and compare the two within the bounds")
		regen   = flag.Bool("regen", false, "recompute the committed reference answers of seeds 1 and 2")
		out     = flag.String("out", "bench/out", "where result.json and trace-<workload>.json go")
	)
	flag.Parse()
	if *short {
		*seconds = 1
	}
	var err error
	switch {
	case *regen:
		err = regenerate(filepath.Join(filepath.Dir(*out), "golden"))
	case *name != "":
		err = single(*name, *seed, *seconds, *trace == 1, *short, *out)
	case *check:
		err = repeatability(*seed, *seconds, *short, *out)
	default:
		var rec *record
		if rec, err = all(*seed, *seconds, *short, *out); err == nil && rec.failed() {
			err = fmt.Errorf("fail_share > 0")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// warmRepeats is how often each warm stage of the traced run repeats.
func warmRepeats(short bool) int {
	if short {
		return 1
	}
	return 5
}

// specsFor lists the metrics a run reports.
func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// run measures one workload, untraced or traced, and prints its table.
func run(w *workload, seed int64, seconds float64, traced, short bool, outDir string) (*runOutput, error) {
	var o *runOutput
	var err error
	if traced {
		if short {
			seconds = 0 // one round over the classes
		}
		o, err = runTraced(w, seed, seconds, warmRepeats(short))
	} else {
		o, err = runUntraced(w, seed, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %d universities, P=%d): %d ops in %.1f s, %d failed\n",
		w.Name, mode, seed, w.Univ, P, o.Attempted, o.Seconds, o.Failed)
	for _, s := range specsFor(traced) {
		fmt.Printf("  %-26s %14.4f %s\n", s.Name, o.Metrics[s.Name], s.Unit)
	}
	if !traced {
		fmt.Printf("  %-26s %14.6f ratio\n", "fail_share", float64(o.Failed)/float64(o.Attempted))
		fmt.Printf("  %-26s %14d count\n", "p99_samples_beyond", o.P99Beyond)
		if w.WriteEvery > 0 {
			fmt.Printf("  %-26s %14.4f ms\n", "write_p50_ms", o.WriteP50Ms)
		}
		for _, c := range o.Classes {
			fmt.Printf("    %-16s %6d ops  p50 %9.3f ms\n", c.Class, c.Ops, c.P50Ms)
		}
	} else {
		if err := writeTrace(outDir, o); err != nil {
			return nil, err
		}
		o.spans = nil // written out; a later workload's heap is measured without them
	}
	return o, nil
}

// single is the mode BENCHMARK.json's command runs: one workload, one
// result object as the last line of standard output.
func single(name string, seed int64, seconds float64, traced, short bool, outDir string) error {
	w := workloadByName(name, short)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	o, err := run(w, seed, seconds, traced, short, outDir)
	if err != nil {
		return err
	}
	specs := specsFor(traced)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v := o.Metrics[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, s.Name, v)
		}
		metrics[s.Name] = value{v, s.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": o.Failed == 0, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// record is bench/out/result.json: what ran, where, and what came out.
type record struct {
	Seed       int64        `json:"seed"`
	Nproc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	P          int          `json:"P"`
	GoVersion  string       `json:"go_version"`
	Commit     string       `json:"commit"`
	WindowS    float64      `json:"window_s"`
	WarmupS    float64      `json:"warmup_s"`
	Warning    string       `json:"warning,omitempty"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
	Runs       []*runOutput `json:"runs"`
}

func (r *record) failed() bool {
	for _, o := range r.Runs {
		if o.Failed > 0 {
			return true
		}
	}
	return false
}

// commit names the checkout: the driver's checkouts are not git
// repositories, so "unknown" is a normal answer.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// all runs the five workloads in this one process, each untraced and
// then traced, and writes the run record.
func all(seed int64, seconds float64, short bool, outDir string) (*record, error) {
	rec := &record{Seed: seed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: P,
		GoVersion: runtime.Version(), Commit: commit(), WindowS: seconds, WarmupS: warmupFor(time.Duration(seconds * float64(time.Second))).Seconds(),
		EndToEnd: endToEndMetrics, PerLayer: perLayerMetrics}
	if rec.GOMAXPROCS == 1 {
		rec.Warning = "GOMAXPROCS=1: shard_exec and zipf_serve measure overhead, not parallelism"
		fmt.Println("warning:", rec.Warning)
	}
	for _, traced := range []bool{false, true} {
		for _, w := range workloads(short) {
			o, err := run(w, seed, seconds, traced, short, outDir)
			if err != nil {
				return nil, err
			}
			rec.Runs = append(rec.Runs, o)
			debug.FreeOSMemory() // the next workload starts from an empty heap
		}
	}
	return rec, writeJSON(filepath.Join(outDir, "result.json"), rec)
}

// repeatability runs the benchmark twice and compares every end-to-end
// metric of every workload with its bound, and the traced counts
// exactly.
func repeatability(seed int64, seconds float64, short bool, outDir string) error {
	first, err := all(seed, seconds, short, outDir)
	if err != nil {
		return err
	}
	second, err := all(seed, seconds, short, outDir)
	if err != nil {
		return err
	}
	outside := 0
	fmt.Printf("\n%-13s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, a := range first.Runs {
		b := second.Runs[i]
		if a.Trace {
			for _, name := range exactCounts {
				if a.Metrics[name] != b.Metrics[name] {
					outside++
					fmt.Printf("%-13s %-22s %14.4f %14.4f  counts differ\n", a.Workload, name, a.Metrics[name], b.Metrics[name])
				}
			}
			continue
		}
		for _, s := range endToEndMetrics {
			x, y := a.Metrics[s.Name], b.Metrics[s.Name]
			diff := math.Abs(x-y) / math.Min(x, y)
			mark := ""
			if diff > s.Bound {
				outside++
				mark = "  OUTSIDE"
			}
			fmt.Printf("%-13s %-22s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", a.Workload, s.Name, x, y, 100*diff, 100*s.Bound, mark)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d metric pairs outside their bound", outside)
	}
	if first.failed() || second.failed() {
		return fmt.Errorf("fail_share > 0")
	}
	return nil
}

// exactCounts are the traced-run counts that must repeat exactly.
var exactCounts = []string{"search.covers_explored", "search.estimate_calls", "engine.rows_examined", "plan.nodes",
	"reformulate.disjuncts", "cover.fragments", "sqlgen.sql_bytes", "engine.rows_out", "shard.rows_moved"}

func regenerate(dir string) error {
	for _, seed := range []int64{1, 2} {
		ref, err := regenGolden(seed)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
		if err := os.WriteFile(path, marshalReference(ref), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d answers)\n", path, len(ref))
	}
	return nil
}

// writeTrace writes the run's spans and the self time per span name.
func writeTrace(outDir string, o *runOutput) error {
	return writeJSON(filepath.Join(outDir, "trace-"+o.Workload+".json"), map[string]any{
		"workload": o.Workload, "seed": o.Seed, "self_ms": selfByName(o.spans), "spans": o.spans,
	})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package core

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"testing"

	"repro/internal/engine"
	"repro/internal/lubm"
)

// explainGoldenFile holds the native backend's EXPLAIN of every golden
// case, gzipped: one line per case, the case name ("Q9/gdl-ext"), a tab,
// and the plan.Explain JSON — every node's estimates and actual row
// count. Row counts do not depend on the worker budget, so one line
// serves a case's sequential and parallel runs.
const explainGoldenFile = "testdata/explain_golden.jsonl.gz"

// explainGoldenCases runs the LUBM workload (Q1–Q13 and A3–A5) under
// ucq, uscq, croot, gdl-ext and gdl-rdbms on a one-university database
// with the given worker budget, each case on a fresh Answerer and
// profile so no execution feedback carries over, and returns the
// EXPLAIN JSON of each, in case order.
func explainGoldenCases(t *testing.T, workers int) (names []string, explains [][]byte) {
	t.Helper()
	tb := lubm.TBox()
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 1}, db)
	db.Finalize()
	qs := append(lubm.Queries(), lubm.StarQueries()[:3]...)
	strategies := []Strategy{StrategyUCQ, StrategyUSCQ, StrategyCroot, StrategyGDLExt, StrategyGDLRDBMS}
	for _, q := range qs {
		for _, s := range strategies {
			a := New(tb, db, engine.ProfilePostgres())
			a.Workers = workers
			res, err := a.Answer(q, s)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.Name, s, err)
			}
			ex, err := json.Marshal(res.Explain)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, q.Name+"/"+string(s))
			explains = append(explains, ex)
		}
	}
	return names, explains
}

// readExplainGolden loads the golden file into case name → EXPLAIN JSON.
func readExplainGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(explainGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		name, ex, ok := bytes.Cut(line, []byte("\t"))
		if !ok {
			t.Fatalf("malformed golden line %.40q", line)
		}
		want[string(name)] = ex
	}
	return want
}

// TestExplainGolden: the native backend reproduces, byte for byte, the
// recorded EXPLAIN of every golden case, at one worker and at four.
func TestExplainGolden(t *testing.T) {
	want := readExplainGolden(t)
	for _, workers := range []int{1, 4} {
		names, explains := explainGoldenCases(t, workers)
		if len(want) != len(names) {
			t.Errorf("golden file has %d cases, the test runs %d", len(want), len(names))
		}
		for i, name := range names {
			w, ok := want[name]
			switch {
			case !ok:
				t.Errorf("%s: no golden EXPLAIN", name)
			case !bytes.Equal(explains[i], w):
				t.Errorf("%s (workers=%d): EXPLAIN differs from the golden one\n got: %.300s\nwant: %.300s",
					name, workers, explains[i], w)
			}
		}
	}
}

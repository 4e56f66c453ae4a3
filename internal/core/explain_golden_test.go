package core

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/sqlgen"
)

// explainGoldenFile holds the native backend's EXPLAIN of every golden
// case, gzipped: one line per case, the case name ("Q9/gdl-ext"), a tab,
// and the plan.Explain JSON — every node's estimates and actual row
// count. Row counts do not depend on the worker budget, so one line
// serves a case's sequential and parallel runs.
const explainGoldenFile = "testdata/explain_golden.jsonl.gz"

// explainGoldenCases runs the LUBM workload (Q1–Q13 and A3–A5) under
// ucq, uscq, croot, gdl-ext and gdl-rdbms on a one-university database
// with the given worker budget, each case on a fresh Answerer, and
// returns the EXPLAIN JSON of each, in case order.
func explainGoldenCases(t *testing.T, workers int) (names []string, explains [][]byte) {
	t.Helper()
	tb, db := lubm.TBox(), goldenDB(engine.LayoutSimple)
	strategies := []Strategy{StrategyUCQ, StrategyUSCQ, StrategyCroot, StrategyGDLExt, StrategyGDLRDBMS}
	for _, q := range goldenQueries() {
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

// goldenDB generates the one-university database of the golden cases.
func goldenDB(layout engine.Layout) *engine.DB {
	db := engine.NewDB(layout)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 1}, db)
	db.Finalize()
	return db
}

// goldenQueries are the golden cases' queries: LUBM Q1–Q13 and A3–A5.
func goldenQueries() []query.CQ {
	return append(lubm.Queries(), lubm.StarQueries()[:3]...)
}

// readGzip returns the uncompressed contents of a gzipped golden file.
func readGzip(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
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
	return data
}

// writeGzip writes data to path, gzipped.
func writeGzip(t *testing.T, path string, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// updateExplainGolden rewrites explainGoldenFile from the current code
// before comparing against it: go test ./internal/core -run
// TestExplainGolden -update-explain-golden.
var updateExplainGolden = flag.Bool("update-explain-golden", false, "rewrite "+explainGoldenFile)

// writeExplainGolden writes the golden file in the format
// readExplainGolden reads: per case, its name, a tab, its EXPLAIN JSON
// and a newline.
func writeExplainGolden(t *testing.T, names []string, explains [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	for i, name := range names {
		fmt.Fprintf(&buf, "%s\t%s\n", name, explains[i])
	}
	writeGzip(t, explainGoldenFile, buf.Bytes())
}

// readExplainGolden loads the golden file into case name → EXPLAIN JSON.
func readExplainGolden(t *testing.T) map[string][]byte {
	t.Helper()
	data := readGzip(t, explainGoldenFile)
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
// With -update-explain-golden it first records the one-worker EXPLAINs,
// then reads the file back and compares as always.
func TestExplainGolden(t *testing.T) {
	if *updateExplainGolden {
		names, explains := explainGoldenCases(t, 1)
		writeExplainGolden(t, names, explains)
	}
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

// updateSQLGolden rewrites sqlGoldenFile from the current code instead
// of comparing against it: go test ./internal/core -run TestSQLGolden
// -update-sql-golden.
var updateSQLGolden = flag.Bool("update-sql-golden", false, "rewrite "+sqlGoldenFile)

// sqlGoldenFile records, per golden case, everything a consumer of the
// plan tree derives from it besides the native EXPLAIN: the SQL text of
// both layouts, the ε estimate, and the shard backend's
// alignment/exchange decision. Gzipped JSONL, one sqlGoldenCase a line.
const sqlGoldenFile = "testdata/sql_golden.jsonl.gz"

// sqlGoldenCase is one line of sqlGoldenFile.
type sqlGoldenCase struct {
	Case string `json:"case"`
	// SQL is the simple-layout sqlgen.Render of Result.Plan; BackendSQL
	// the sql backend's Explain.SQL for the same query and strategy.
	SQL        string `json:"sql"`
	BackendSQL string `json:"backend_sql"`
	// RDFLen and RDFSHA256 fingerprint the RDF-layout rendering.
	RDFLen    int    `json:"rdf_len"`
	RDFSHA256 string `json:"rdf_sha256"`
	// EpsCost and EpsCard are the math.Float64bits of the ε estimate
	// of Result.Plan.
	EpsCost uint64 `json:"eps_cost"`
	EpsCard uint64 `json:"eps_card"`
	// Shard2 and Shard7 are the shard backend's EXPLAIN root Detail at
	// two and seven shards.
	Shard2 string `json:"shard2"`
	Shard7 string `json:"shard7"`
}

// sqlGoldenCases runs LUBM Q1–Q13 and A3–A5 under ucq, ucq-min, uscq,
// croot, gdl-ext and gdl-rdbms on one-university databases of both
// layouts, each case on fresh Answerers, and returns one record per
// case, in case order.
func sqlGoldenCases(t *testing.T) []sqlGoldenCase {
	t.Helper()
	tb := lubm.TBox()
	simple, rdf := goldenDB(engine.LayoutSimple), goldenDB(engine.LayoutRDF)
	strategies := []Strategy{StrategyUCQ, StrategyUCQMin, StrategyUSCQ, StrategyCroot, StrategyGDLExt, StrategyGDLRDBMS}
	var out []sqlGoldenCase
	for _, q := range goldenQueries() {
		for _, s := range strategies {
			c := sqlGoldenCase{Case: q.Name + "/" + string(s)}
			fail := func(stage string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s %s: %v", c.Case, stage, err)
				}
			}
			a := New(tb, simple, engine.ProfilePostgres())
			res, err := a.Answer(q, s)
			fail("native", err)
			c.SQL = renderSized(t, c.Case, res, engine.LayoutSimple)
			est := cost.NewModel(a.DB).Estimate(res.Plan)
			c.EpsCost, c.EpsCard = math.Float64bits(est.Cost), math.Float64bits(est.Card)

			// A fresh Answerer per backend: the answer cache keys on the
			// backend's name, which does not carry the shard count.
			a = New(tb, simple, engine.ProfilePostgres())
			sqlb, err := NewBackendByName("sql", simple, a.Profile, 0)
			fail("sql backend", err)
			res, err = a.AnswerWith(q, s, sqlb)
			fail("sql", err)
			c.BackendSQL = res.Explain.SQL

			for _, n := range []int{2, 7} {
				a = New(tb, simple, engine.ProfilePostgres())
				sb, err := NewBackendByName("shard", simple, a.Profile, n)
				fail("shard backend", err)
				res, err = a.AnswerWith(q, s, sb)
				fail("shard", err)
				if n == 2 {
					c.Shard2 = res.Explain.Root.Detail
				} else {
					c.Shard7 = res.Explain.Root.Detail
				}
			}

			res, err = New(tb, rdf, engine.ProfilePostgres()).Answer(q, s)
			fail("rdf", err)
			sql := renderSized(t, c.Case, res, engine.LayoutRDF)
			sum := sha256.Sum256([]byte(sql))
			c.RDFLen, c.RDFSHA256 = len(sql), hex.EncodeToString(sum[:])
			out = append(out, c)
		}
	}
	return out
}

// renderSized renders res.Plan as the statement shipped on layout l
// and checks that Result.SQLSize, which core counts without rendering,
// is its exact length.
func renderSized(t *testing.T, name string, res *Result, l engine.Layout) string {
	t.Helper()
	sql, err := sqlgen.Render(res.Plan, sqlgen.Options{Layout: l, Args: res.Args})
	if err != nil {
		t.Fatalf("%s: render: %v", name, err)
	}
	if res.SQLSize != len(sql) {
		t.Errorf("%s (%v): SQLSize = %d, want len(Render) = %d", name, l, res.SQLSize, len(sql))
	}
	return sql
}

// TestSQLGolden: the SQL text of both layouts, the ε estimate and the
// shard alignment decision of every golden case reproduce the recorded
// ones exactly.
func TestSQLGolden(t *testing.T) {
	got := sqlGoldenCases(t)
	if *updateSQLGolden {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, c := range got {
			if err := enc.Encode(c); err != nil {
				t.Fatal(err)
			}
		}
		writeGzip(t, sqlGoldenFile, buf.Bytes())
		return
	}
	want := map[string]sqlGoldenCase{}
	dec := json.NewDecoder(bytes.NewReader(readGzip(t, sqlGoldenFile)))
	for dec.More() {
		var c sqlGoldenCase
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		want[c.Case] = c
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(got))
	}
	for _, g := range got {
		w, ok := want[g.Case]
		switch {
		case !ok:
			t.Errorf("%s: no golden record", g.Case)
		case g != w:
			t.Errorf("%s: differs from the golden record\n got: %.400s\nwant: %.400s", g.Case, g.String(), w.String())
		}
	}
}

func (c sqlGoldenCase) String() string {
	b, _ := json.Marshal(c)
	return string(b)
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dllite"
	"repro/internal/engine"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	tb := dllite.MustParseTBox(`
PhDStudent <= Researcher
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
worksWith <= worksWith-
PhDStudent <= not exists supervisedBy-
`)
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox(`
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
`))
	srv := httptest.NewServer(New(core.New(tb, db, engine.ProfilePostgres())))
	t.Cleanup(srv.Close)
	return srv
}

func postQuery(t *testing.T, srv *httptest.Server, body string) (*http.Response, QueryResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, out := postQuery(t, srv,
		`{"query": "q(x) <- PhDStudent(x), worksWith(y, x)", "strategy": "ucq"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Answers) != 1 || out.Answers[0][0] != "Damian" {
		t.Fatalf("answers = %v", out.Answers)
	}
	if out.Disjuncts == 0 || out.SQLBytes == 0 {
		t.Errorf("stats missing: %+v", out)
	}
}

func TestDefaultStrategy(t *testing.T) {
	srv := testServer(t)
	resp, out := postQuery(t, srv, `{"query": "q(x) <- Researcher(x)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Strategy != string(core.StrategyGDLExt) {
		t.Errorf("default strategy = %s", out.Strategy)
	}
}

func TestBadRequests(t *testing.T) {
	srv := testServer(t)
	for _, body := range []string{
		`not json`,
		`{"query": "broken(("}`,
		`{"query": "q(x) <- A(x)", "strategy": "bogus"}`,
	} {
		resp, _ := postQuery(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestMethodRouting(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", resp.StatusCode)
	}
}

func TestConsistencyEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/consistency")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ConsistencyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Consistent {
		t.Errorf("KB should be consistent: %+v", out)
	}
}

func TestConsistencyViolationReported(t *testing.T) {
	tb := dllite.MustParseTBox("A <= not B")
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox("A(x)\nB(x)"))
	srv := httptest.NewServer(New(core.New(tb, db, engine.ProfilePostgres())))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/consistency")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ConsistencyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Consistent || len(out.Violations) != 1 {
		t.Errorf("violation not reported: %+v", out)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Facts != 2 || out.Roles != 2 {
		t.Errorf("stats = %+v", out)
	}
	if !strings.Contains(out.Layout, "Simple") {
		t.Errorf("layout = %s", out.Layout)
	}
}

func TestStrategiesEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/strategies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []StrategyInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(core.Strategies()) {
		t.Errorf("strategies = %v", out)
	}
	for _, st := range out {
		if st.Name == "" || st.Description == "" {
			t.Errorf("strategy %+v missing name or description", st)
		}
	}
}

// TestConcurrentQueries: Answer is safe for concurrent use, so requests
// run in parallel up to GOMAXPROCS; concurrent clients must all
// succeed.
func TestConcurrentQueries(t *testing.T) {
	srv := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/query", "application/json",
				bytes.NewBufferString(`{"query": "q(x) <- PhDStudent(x)", "strategy": "ucq"}`))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentAnswerMixedStrategies drives concurrent Answerer.Answer
// calls through the HTTP server across every strategy, with parallel
// evaluation workers and the plan cache both active — the shared state
// the race detector must find clean: the Reformulator's memo, the
// search memo, the answer cache, the DB's lazy statistics, and the TBox
// dependency index.
func TestConcurrentAnswerMixedStrategies(t *testing.T) {
	tb := dllite.MustParseTBox(`
PhDStudent <= Researcher
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
exists supervisedBy- <= Researcher
worksWith <= worksWith-
`)
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox(`
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Eva, Francois)
`))
	prof := engine.ProfilePostgres()
	a := core.New(tb, db, prof)
	a.Workers = 4
	srv := httptest.NewServer(New(a))
	defer srv.Close()

	queries := []string{
		"q(x) <- PhDStudent(x), worksWith(y, x)",
		"q(x) <- Researcher(x)",
		"q(x, y) <- supervisedBy(x, y), Researcher(y)",
	}
	strategies := []core.Strategy{
		core.StrategyUCQ, core.StrategyUSCQ, core.StrategyCroot,
		core.StrategyGDLRDBMS, core.StrategyGDLExt,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		q, s := queries[i%len(queries)], strategies[i%len(strategies)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{Query: q, Strategy: string(s)})
			resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out QueryResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s/%s: status %d", q, s, resp.StatusCode)
				return
			}
			if len(out.Answers) == 0 {
				errs <- fmt.Errorf("%s/%s: empty answers", q, s)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits, misses := a.Cache.Stats(); hits+misses != 64 || misses < uint64(len(queries)) {
		t.Errorf("cache stats hits=%d misses=%d over 64 requests", hits, misses)
	}
}

func TestStatementTooLongStatus(t *testing.T) {
	tb := dllite.MustParseTBox("A <= B")
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox("A(x)"))
	prof := engine.ProfileDB2()
	prof.MaxStatementBytes = 10
	srv := httptest.NewServer(New(core.New(tb, db, prof)))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/query", "application/json",
		bytes.NewBufferString(`{"query": "q(x) <- B(x)", "strategy": "ucq"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

// TestUnknownStrategyRejected: an unrecognized strategy is a 400 whose
// message lists every valid strategy, before any search or evaluation
// runs.
func TestUnknownStrategyRejected(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/query", "application/json",
		bytes.NewBufferString(`{"query": "q(x) <- Researcher(x)", "strategy": "bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	msg := out["error"]
	if !strings.Contains(msg, `"bogus"`) {
		t.Errorf("error %q does not name the bad strategy", msg)
	}
	for _, st := range core.Strategies() {
		if !strings.Contains(msg, string(st)) {
			t.Errorf("error %q does not list valid strategy %s", msg, st)
		}
	}
}

// TestExplainEndpoint: POST /explain returns the annotated plan with
// both estimated and actual figures, and GET /explain accepts the same
// request as URL parameters.
func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/explain", "application/json",
		bytesNewBuffer(`{"query": "q(x) <- PhDStudent(x), worksWith(y, x)", "strategy": "croot"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil || out.Explain.Root == nil {
		t.Fatal("no explain tree in response")
	}
	if out.Explain.Backend != "native" {
		t.Errorf("backend = %s", out.Explain.Backend)
	}
	if out.Explain.Root.ActualRows < 0 {
		t.Errorf("root actualRows = %d, want observed count", out.Explain.Root.ActualRows)
	}
	if out.Text == "" || !strings.Contains(out.Text, "distinct") {
		t.Errorf("text rendering missing: %q", out.Text)
	}

	get, err := http.Get(srv.URL + "/explain?query=" + url.QueryEscape("q(x) <- Researcher(x)") + "&strategy=ucq")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d", get.StatusCode)
	}
	var gout ExplainResponse
	if err := json.NewDecoder(get.Body).Decode(&gout); err != nil {
		t.Fatal(err)
	}
	if gout.Strategy != "ucq" || gout.Explain == nil {
		t.Errorf("GET explain = %+v", gout)
	}
	if out.Search != nil || gout.Search != nil {
		t.Errorf("fixed-cover strategies ran no search, got %+v / %+v", out.Search, gout.Search)
	}

	// A search strategy reports what the search explored and how many
	// fragments its covers were assembled from.
	sresp, err := http.Post(srv.URL+"/explain", "application/json",
		bytesNewBuffer(`{"query": "q(x) <- PhDStudent(x), worksWith(y, x)", "strategy": "gdl-ext"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sout ExplainResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sout); err != nil {
		t.Fatal(err)
	}
	if s := sout.Search; s == nil || s.ExploredLq+s.ExploredGq == 0 || s.FragmentsEstimated == 0 {
		t.Errorf("gdl-ext explain carries no search statistics: %+v", sout.Search)
	}
}

func bytesNewBuffer(s string) *bytes.Buffer { return bytes.NewBufferString(s) }

func TestBackendsEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []BackendInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("backends = %+v", infos)
	}
	names := map[string]bool{}
	defaults := 0
	for _, in := range infos {
		names[in.Name] = true
		if in.Description == "" {
			t.Fatalf("backend %s has no description", in.Name)
		}
		if in.Default {
			defaults++
			if in.Name != "native" {
				t.Fatalf("default backend = %s", in.Name)
			}
		}
	}
	if !names["native"] || !names["sql"] || !names["shard"] || defaults != 1 {
		t.Fatalf("backends = %+v", infos)
	}
}

func TestQueryPerRequestBackend(t *testing.T) {
	srv := testServer(t)
	want := ""
	for _, backend := range []string{"", "native", "sql", "shard"} {
		body := fmt.Sprintf(`{"query": "q(x) <- Researcher(x)", "strategy": "ucq", "backend": %q}`, backend)
		resp, out := postQuery(t, srv, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("backend %q: status = %d", backend, resp.StatusCode)
		}
		wantName := backend
		if backend == "" {
			wantName = "native"
		}
		if out.Backend != wantName {
			t.Fatalf("backend %q: response backend = %q", backend, out.Backend)
		}
		got := fmt.Sprint(out.Answers)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("backend %q answers %s, want %s", backend, got, want)
		}
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	srv := testServer(t)
	resp, _ := postQuery(t, srv, `{"query": "q(x) <- Researcher(x)", "backend": "duckdb"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	msg := e["error"]
	if !strings.Contains(msg, "duckdb") || !strings.Contains(msg, "native") ||
		!strings.Contains(msg, "sql") || !strings.Contains(msg, "shard") {
		t.Fatalf("error = %q", msg)
	}
	// GET form validates the same way.
	get, err := http.Get(srv.URL + "/explain?query=" + url.QueryEscape("q(x) <- Researcher(x)") + "&backend=duckdb")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET status = %d", get.StatusCode)
	}
}

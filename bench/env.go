package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/server"
)

// P is the only parallelism number: clients, shards and Workers never
// exceed it, and it is recorded in the output.
var P = min(runtime.NumCPU(), 4)

// env is one workload's system under test: the loaded database, the
// Answerer, and whatever backend or HTTP server the workload goes
// through.
type env struct {
	w    *workload
	tbox *dllite.TBox
	db   *engine.DB
	prof *engine.Profile
	a    *core.Answerer

	backend plan.Backend // nil = the Answerer's native default
	purge   func()       // drops the backend's own caches (shard), or nil

	url    string // HTTP workloads: the loopback server
	hs     *http.Server
	served chan struct{}
	build  time.Duration // backend construction (shard partitioning)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// generateDB generates the LUBM∃ database of the workload's scale; the
// caller finalizes it.
func generateDB(w *workload, seed int64) *engine.DB {
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: w.Univ, Seed: seed}, db)
	return db
}

// setup builds the environment: generate, load, Finalize, backend
// build, server start and pre-warm — everything setup_s covers.
func setup(w *workload, seed int64) (*env, error) {
	e := &env{w: w, tbox: lubm.TBox(), prof: engine.ProfilePostgres()}
	e.db = generateDB(w, seed)
	e.db.Finalize()
	e.a = core.New(e.tbox, e.db, e.prof)
	e.a.Workers = 1
	if w.Shard {
		t0 := time.Now()
		b, err := core.NewBackendByName("shard", e.db, e.prof, P)
		if err != nil {
			return nil, err
		}
		e.build = time.Since(t0)
		e.backend = b
		e.a.Workers = P
		if pc, ok := b.(interface{ PurgeCache() }); ok {
			e.purge = pc.PurgeCache
		}
	}
	if w.HTTP {
		if err := e.serve(); err != nil {
			return nil, err
		}
	}
	if w.Prewarm {
		x := e.executor()
		for ci, c := range w.Classes {
			if r := x.do(op{Class: ci, Text: c.Text}); r.err != nil {
				e.close()
				return nil, fmt.Errorf("pre-warm %s: %w", c.Name, r.err)
			}
		}
	}
	return e, nil
}

// serve starts the real HTTP handler on a loopback listener.
func (e *env) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.url = "http://" + ln.Addr().String() + "/query"
	e.hs = &http.Server{Handler: server.NewWithOptions(e.a, server.Options{})}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return nil
}

// close stops the server, if any, and waits until it has ended.
func (e *env) close() {
	if e.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		_ = e.hs.Close()
	}
	<-e.served
	e.hs = nil
}

// result is what one operation returned and what it cost.
type result struct {
	tuples [][]string
	lat    time.Duration
	eval   time.Duration // the part of lat the system reports as plan execution
	search time.Duration
	hit    bool // answer-cache hit
	bytes  int  // HTTP response size
	err    error
}

// executor sends one client's operations to the system through the
// workload's entry point. Each client owns one.
type executor interface {
	do(o op) result
	close()
}

func (e *env) executor() executor {
	if e.w.HTTP {
		return &httpExec{e: e, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
	}
	return &libExec{e: e}
}

// libExec calls core.Answerer.AnswerWith (reads) and
// engine.DB.AddRoleFact + Finalize (writes).
type libExec struct{ e *env }

func (x *libExec) close() {}

func (x *libExec) do(o op) result {
	e := x.e
	if o.write() {
		t0 := time.Now()
		e.db.AddRoleFact("takesCourse", o.Subject, o.Object)
		e.db.Finalize()
		return result{lat: time.Since(t0)}
	}
	// Untimed: make the op pay what the workload says it pays.
	if e.w.Cold {
		e.a.InvalidateTBox()
	}
	if e.purge != nil {
		e.purge()
	}
	t0 := time.Now()
	q, err := query.ParseCQ(o.Text)
	if err != nil {
		return result{err: err}
	}
	res, err := e.a.AnswerWith(q, e.w.Classes[o.Class].Strategy, e.backend)
	lat := time.Since(t0)
	if err != nil {
		return result{lat: lat, err: err}
	}
	return result{tuples: res.Tuples, lat: lat, eval: res.EvalTime, search: res.SearchTime, hit: res.CacheHit}
}

// httpExec posts to /query over one keep-alive connection. Latency
// runs until the body is read; decoding it is the client's own work.
type httpExec struct {
	e      *env
	client *http.Client
}

func (x *httpExec) close() { x.client.CloseIdleConnections() }

func (x *httpExec) do(o op) result {
	body, err := json.Marshal(server.QueryRequest{Query: o.Text, Strategy: string(x.e.w.Classes[o.Class].Strategy)})
	if err != nil {
		return result{err: err}
	}
	t0 := time.Now()
	resp, err := x.client.Post(x.e.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return result{lat: time.Since(t0), err: err}
	}
	data, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	_ = resp.Body.Close() // fully read; nothing left to fail
	if err != nil {
		return result{lat: lat, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return result{lat: lat, err: fmt.Errorf("POST /query: %s: %s", resp.Status, bytes.TrimSpace(data))}
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		return result{lat: lat, err: err}
	}
	return result{tuples: qr.Answers, lat: lat, bytes: len(data), hit: qr.CacheHit,
		eval:   time.Duration(qr.EvalMs * float64(time.Millisecond)),
		search: time.Duration(qr.SearchMs * float64(time.Millisecond))}
}

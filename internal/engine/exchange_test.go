package engine

import (
	"sync"
	"testing"
)

// exchangeInput builds one relation-source per shard whose rows carry
// the key in column 1 (deliberately not column 0 — the exchange must
// route on the named column, not the first).
func exchangeInput(n, rowsPerSource int) []Operator {
	srcs := make([]Operator, n)
	for i := 0; i < n; i++ {
		rel := &Relation{Schema: []string{"x", "k"}}
		for r := 0; r < rowsPerSource; r++ {
			// x identifies the producing source and row; k spreads over
			// the shard space.
			rel.Rows = append(rel.Rows, []int64{int64(i*rowsPerSource + r), int64(r * 7)})
		}
		srcs[i] = NewRelationSource(rel)
	}
	return srcs
}

// drainEndpoints opens and drains every endpoint concurrently (a
// destination without a consumer would legitimately backpressure the
// producers feeding the others) and returns the rows each received.
func drainEndpoints(t *testing.T, eps []Operator) [][][]int64 {
	t.Helper()
	out := make([][][]int64, len(eps))
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep Operator) {
			defer wg.Done()
			rel := Drain(ep)
			out[i] = rel.Rows
		}(i, ep)
	}
	wg.Wait()
	return out
}

func TestExchangeRoutesByKey(t *testing.T) {
	const n, rows = 3, 50
	srcs := exchangeInput(n, rows)
	hub, eps, err := NewExchange(srcs, "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	if hub.Key() != "k" {
		t.Fatalf("key = %q", hub.Key())
	}
	got := drainEndpoints(t, eps)
	seen := map[int64]bool{}
	total := 0
	for i, rs := range got {
		for _, row := range rs {
			if d := ShardOf(row[1], n); d != i {
				t.Fatalf("row %v delivered to shard %d, owner is %d", row, i, d)
			}
			if seen[row[0]] {
				t.Fatalf("row id %d delivered twice", row[0])
			}
			seen[row[0]] = true
			total++
		}
	}
	if total != n*rows {
		t.Fatalf("delivered %d rows, want %d", total, n*rows)
	}
	// Counters agree with the delivery: every row is counted at its
	// destination, and only off-shard rows count as moved.
	var recv int64
	for i := range eps {
		recv += hub.DeliveredTo(i)
	}
	if recv != int64(n*rows) {
		t.Fatalf("DeliveredTo sums to %d, want %d", recv, n*rows)
	}
	var sent int64
	for i := range eps {
		sent += hub.SentFrom(i)
	}
	if sent != hub.RowsMoved() {
		t.Fatalf("SentFrom sums to %d, RowsMoved = %d", sent, hub.RowsMoved())
	}
	if hub.RowsMoved() <= 0 || hub.RowsMoved() > int64(n*rows) {
		t.Fatalf("RowsMoved = %d", hub.RowsMoved())
	}
}

// TestExchangeHotKey routes every row to one shard — the skew case the
// bounded channels must survive: producers of the cold shards
// backpressure against the single hot consumer.
func TestExchangeHotKey(t *testing.T) {
	const n = 4
	const rows = 3000 // several batches deep, past the channel capacity
	hot := int64(11)
	hotShard := ShardOf(hot, n)
	srcs := make([]Operator, n)
	for i := 0; i < n; i++ {
		rel := &Relation{Schema: []string{"x", "k"}}
		for r := 0; r < rows; r++ {
			rel.Rows = append(rel.Rows, []int64{int64(i*rows + r), hot})
		}
		srcs[i] = NewRelationSource(rel)
	}
	hub, eps, err := NewExchange(srcs, "k", 2)
	if err != nil {
		t.Fatal(err)
	}
	got := drainEndpoints(t, eps)
	for i, rs := range got {
		want := 0
		if i == hotShard {
			want = n * rows
		}
		if len(rs) != want {
			t.Fatalf("shard %d received %d rows, want %d", i, len(rs), want)
		}
	}
	if hub.DeliveredTo(hotShard) != int64(n*rows) {
		t.Fatalf("DeliveredTo(hot) = %d", hub.DeliveredTo(hotShard))
	}
	// Every source but the hot shard's own shipped all its rows across.
	if want := int64((n - 1) * rows); hub.RowsMoved() != want {
		t.Fatalf("RowsMoved = %d, want %d", hub.RowsMoved(), want)
	}
}

// TestExchangeEarlyClose abandons the endpoints after at most one
// batch each: Close must unblock the producers and tear the hub down
// without deadlock (timeout) or leaked goroutines (-race watches the
// teardown ordering).
func TestExchangeEarlyClose(t *testing.T) {
	const n = 3
	srcs := exchangeInput(n, 5000)
	_, eps, err := NewExchange(srcs, "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, ep := range eps {
		wg.Add(1)
		go func(ep Operator) {
			defer wg.Done()
			ep.Open()
			b := NewBatch(len(ep.Schema()))
			ep.Next(b) // at most one batch, then abandon the stream
			ep.Close()
		}(ep)
	}
	wg.Wait()
}

// TestExchangeCloseWithoutOpen tears a never-started hub down: no
// producer ran, so Close must not wait for one.
func TestExchangeCloseWithoutOpen(t *testing.T) {
	srcs := exchangeInput(2, 10)
	_, eps, err := NewExchange(srcs, "k", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		ep.Close()
	}
}

func TestExchangeErrors(t *testing.T) {
	if _, _, err := NewExchange(exchangeInput(1, 1), "k", 2); err == nil {
		t.Fatal("single-shard exchange must error")
	}
	if _, _, err := NewExchange(exchangeInput(2, 1), "nope", 2); err == nil {
		t.Fatal("unknown key must error")
	}
}

// TestUnionFanIn checks the per-child merge against the plain union:
// same multiset of rows, any order.
func TestUnionFanIn(t *testing.T) {
	rels := []*Relation{
		{Schema: []string{"x"}, Rows: [][]int64{{1}, {2}, {3}}},
		{Schema: []string{"x"}, Rows: [][]int64{{4}}},
		{Schema: []string{"x"}, Rows: [][]int64{}},
		{Schema: []string{"x"}, Rows: [][]int64{{5}, {6}}},
	}
	children := make([]Operator, len(rels))
	for i, r := range rels {
		children[i] = NewRelationSource(r)
	}
	got := Drain(NewUnionFanIn([]string{"x"}, children))
	seen := map[int64]int{}
	for _, row := range got.Rows {
		seen[row[0]]++
	}
	if len(got.Rows) != 6 || len(seen) != 6 {
		t.Fatalf("fan-in rows = %v", got.Rows)
	}
	// Single child: falls back to the plain union.
	one := Drain(NewUnionFanIn([]string{"x"}, children[:1]))
	if len(one.Rows) != 3 {
		t.Fatalf("single-child fan-in rows = %v", one.Rows)
	}
}

// TestCaptureReplaysStream checks the result-cache plumbing: a fully
// drained Capture yields a complete relation that a RelationSource
// replays byte-for-byte; an abandoned Capture reports incomplete.
func TestCaptureReplaysStream(t *testing.T) {
	rel := &Relation{Schema: []string{"x", "y"}, Rows: [][]int64{{1, 2}, {3, 4}, {5, 6}}}
	cap1 := NewCapture(NewRelationSource(rel))
	out := Drain(cap1)
	if len(out.Rows) != 3 {
		t.Fatalf("drained %d rows", len(out.Rows))
	}
	captured, complete := cap1.Result()
	if !complete || len(captured.Rows) != 3 {
		t.Fatalf("capture = %v complete=%v", captured, complete)
	}
	replay := Drain(NewRelationSource(captured))
	for i, row := range replay.Rows {
		if row[0] != rel.Rows[i][0] || row[1] != rel.Rows[i][1] {
			t.Fatalf("replay row %d = %v", i, row)
		}
	}

	// Abandoned mid-stream: the partial capture must not be marked
	// complete (it would poison a result cache).
	big := &Relation{Schema: []string{"x"}}
	for i := 0; i < 5000; i++ {
		big.Rows = append(big.Rows, []int64{int64(i)})
	}
	cap2 := NewCapture(NewRelationSource(big))
	cap2.Open()
	b := NewBatch(1)
	cap2.Next(b)
	cap2.Close()
	if _, complete := cap2.Result(); complete {
		t.Fatal("abandoned capture must be incomplete")
	}
}

// Key returns the repartition column name.
func (h *Exchange) Key() string { return h.key }

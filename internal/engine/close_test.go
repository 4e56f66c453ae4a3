package engine

// Regression tests for the Operator Close contract: Close closes every
// child Children() reports and is idempotent — double Close (or Close
// without Open) repeats no side effect. The contract is machine-checked
// syntactically by internal/lint's opcontract analyzer; these tests pin
// the runtime behavior it encodes, on the two operators that owed a
// child close (the parallel union of the shard merge path, and the
// hash join's build sides).

import (
	"testing"
)

// lifecycleOp is a source stub counting its Open/Close transitions.
type lifecycleOp struct {
	opBase
	total   int // rows to emit per execution
	emitted int
	opens   int
	closes  int
	gauge   *openGauge // optional: shared with sibling stubs
}

// openGauge counts how many of the stubs sharing it are open at once.
type openGauge struct{ open, peak int }

func newLifecycleOp(total int) *lifecycleOp {
	return &lifecycleOp{opBase: opBase{name: "stub", schema: []string{"x"}}, total: total}
}

func (o *lifecycleOp) Open() {
	o.resetStats()
	o.opens++
	o.emitted = 0
	if g := o.gauge; g != nil {
		g.open++
		g.peak = max(g.peak, g.open)
	}
}

func (o *lifecycleOp) Next(out *Batch) bool {
	out.Reset()
	for o.emitted < o.total && !out.Full() {
		out.Append([]int64{int64(o.emitted)})
		o.emitted++
	}
	return o.yield(out)
}

func (o *lifecycleOp) Close() {
	if !o.closeOnce() {
		return
	}
	o.closes++
	if o.gauge != nil {
		o.gauge.open--
	}
}

func (o *lifecycleOp) Children() []Operator { return nil }

// assertBalanced checks every stub was closed exactly as often as it
// was opened — the contract violation the old parallel-union Close
// allowed (children interrupted mid-stream could stay open, children
// never scheduled must not be closed).
func assertBalanced(t *testing.T, stubs []*lifecycleOp) {
	t.Helper()
	for i, s := range stubs {
		if s.closes != s.opens {
			t.Errorf("child %d: opens=%d closes=%d, want balanced", i, s.opens, s.closes)
		}
	}
}

func TestUnionParallelEarlyCloseClosesChildren(t *testing.T) {
	stubs := make([]*lifecycleOp, 8)
	children := make([]Operator, len(stubs))
	for i := range stubs {
		stubs[i] = newLifecycleOp(200_000)
		children[i] = stubs[i]
	}
	op := NewUnionParallel([]string{"x"}, children, 4)
	op.Open()
	b := NewBatch(1)
	if !op.Next(b) {
		t.Fatal("no batch from 8 producing children")
	}
	op.Close() // early close: most children are mid-stream or unstarted
	assertBalanced(t, stubs)
	op.Close() // double close must not re-close children
	assertBalanced(t, stubs)
}

func TestUnionParallelFullDrainCloseBalanced(t *testing.T) {
	stubs := make([]*lifecycleOp, 4)
	children := make([]Operator, len(stubs))
	for i := range stubs {
		stubs[i] = newLifecycleOp(10)
		children[i] = stubs[i]
	}
	op := NewUnionParallel([]string{"x"}, children, 4)
	rel := Drain(op)
	if len(rel.Rows) != 40 {
		t.Fatalf("drained %d rows, want 40", len(rel.Rows))
	}
	assertBalanced(t, stubs)
	for _, s := range stubs {
		if s.opens != 1 {
			t.Fatalf("child opened %d times, want 1", s.opens)
		}
	}
	op.Close()
	assertBalanced(t, stubs)
}

func TestHashJoinCloseClosesBuildChildren(t *testing.T) {
	probe := newLifecycleOp(5)
	build1 := newLifecycleOp(5)
	build2 := newLifecycleOp(5)
	op := NewHashJoin([]Operator{probe, build1, build2}, 0, []int{1, 2}, 1)
	rel := Drain(op)
	if len(rel.Rows) != 5 {
		t.Fatalf("drained %d rows, want 5", len(rel.Rows))
	}
	stubs := []*lifecycleOp{probe, build1, build2}
	assertBalanced(t, stubs)
	// The build children were opened and closed exactly once (by load,
	// during Open) — the operator-level Close must not double that.
	for i, s := range stubs {
		if s.opens != 1 || s.closes != 1 {
			t.Fatalf("child %d: opens=%d closes=%d, want 1/1", i, s.opens, s.closes)
		}
	}
	op.Close()
	assertBalanced(t, stubs)
}

func TestHashJoinEarlyCloseBalanced(t *testing.T) {
	probe := newLifecycleOp(100_000)
	build := newLifecycleOp(10)
	op := NewHashJoin([]Operator{probe, build}, 0, []int{1}, 1)
	op.Open()
	op.Close() // closed before any Next
	assertBalanced(t, []*lifecycleOp{probe, build})
}

// gaugedStubs returns n stubs of rows rows each, sharing one gauge.
func gaugedStubs(n, rows int) ([]*lifecycleOp, []Operator, *openGauge) {
	g := &openGauge{}
	stubs := make([]*lifecycleOp, n)
	children := make([]Operator, n)
	for i := range stubs {
		stubs[i] = newLifecycleOp(rows)
		stubs[i].gauge = g
		children[i] = stubs[i]
	}
	return stubs, children, g
}

// TestUnionOpensOneArmAtATime: the sequential union opens an arm when
// it reaches it and closes it once exhausted, so a UCQ's arms never
// hold their batches at the same time.
func TestUnionOpensOneArmAtATime(t *testing.T) {
	stubs, children, g := gaugedStubs(6, 3*DefaultBatchSize)
	rel := Drain(newUnion([]string{"x"}, children))
	if len(rel.Rows) != 6*3*DefaultBatchSize {
		t.Fatalf("drained %d rows, want %d", len(rel.Rows), 6*3*DefaultBatchSize)
	}
	if g.peak != 1 {
		t.Fatalf("%d arms open at once, want 1", g.peak)
	}
	assertBalanced(t, stubs)
	for i, s := range stubs {
		if s.opens != 1 {
			t.Fatalf("arm %d opened %d times, want 1", i, s.opens)
		}
	}
}

// TestUnionEarlyAndDoubleCloseBalanced: closing the sequential union
// mid-stream closes the one open arm and leaves the unreached ones
// unopened; a second Close changes nothing.
func TestUnionEarlyAndDoubleCloseBalanced(t *testing.T) {
	stubs, children, g := gaugedStubs(4, 3*DefaultBatchSize)
	op := newUnion([]string{"x"}, children)
	op.Open()
	if !op.Next(NewBatch(1)) {
		t.Fatal("no batch from 4 producing arms")
	}
	op.Close()
	assertBalanced(t, stubs)
	if stubs[0].opens != 1 || stubs[1].opens != 0 || g.open != 0 {
		t.Fatalf("arm opens %d/%d, %d still open; want 1/0, 0", stubs[0].opens, stubs[1].opens, g.open)
	}
	op.Close()
	assertBalanced(t, stubs)
}

// TestDoubleCloseReleasesBatchOnce: an operator returns its input batch
// to the pool in Close; a second Close must not return it again, or two
// later owners would share one batch.
func TestDoubleCloseReleasesBatchOnce(t *testing.T) {
	for _, op := range []Operator{
		newDistinct(newLifecycleOp(10)),
		newProject(newLifecycleOp(10), []string{"x"}, []int{0}),
		NewHashJoin([]Operator{newLifecycleOp(10), newLifecycleOp(10)}, 0, []int{1}, 1),
	} {
		op.Open()
		op.Close()
		op.Close()
		if a, b := getBatch(1), getBatch(1); a == b {
			t.Fatalf("%s: one batch handed out twice after a double Close", op.Stats().Op)
		}
	}
}

// TestCloseWithoutOpenIsNoOp: a compiled-but-never-opened tree may be
// closed (e.g. by a parallel union tearing down unstarted children).
func TestCloseWithoutOpenIsNoOp(t *testing.T) {
	stub := newLifecycleOp(1)
	for _, op := range []Operator{
		stub,
		newUnion([]string{"x"}, []Operator{newLifecycleOp(1)}),
		newDistinct(newLifecycleOp(1)),
		NewUnionParallel([]string{"x"}, []Operator{newLifecycleOp(1), newLifecycleOp(1)}, 2),
		NewHashJoin([]Operator{newLifecycleOp(1), newLifecycleOp(1)}, 0, []int{1}, 1),
	} {
		op.Close()
	}
	if stub.closes != 0 {
		t.Fatalf("Close without Open ran side effects (%d closes)", stub.closes)
	}
}

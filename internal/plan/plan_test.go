package plan

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/query"
)

func mustCQ(t *testing.T, s string) query.CQ {
	t.Helper()
	q, err := query.ParseCQ(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestUCQRoundTrip: lowering then extracting is the identity on the
// UCQ — bodies reassemble in original atom order.
func TestUCQRoundTrip(t *testing.T) {
	u := query.UCQ{Name: "u", Disjuncts: []query.CQ{
		mustCQ(t, "q(x) <- A(x), R(x, y), B(y)"),
		mustCQ(t, "q(x) <- C(x)"),
		mustCQ(t, "q(x) <- R(x, y), S(y, z), T(z, w)"),
	}}
	lo, err := Extract(FromUCQ(u))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindUCQ {
		t.Fatalf("kind = %s", lo.Kind)
	}
	if !reflect.DeepEqual(lo.UCQ, u) {
		t.Errorf("round trip changed the UCQ:\n got %v\nwant %v", lo.UCQ, u)
	}
}

// TestJUCQRoundTrip: a multi-fragment cover reformulation survives the
// plan IR unchanged; a single-fragment one collapses to its UCQ (the
// shape that actually executes — no join, no materialization).
func TestJUCQRoundTrip(t *testing.T) {
	frag1 := query.UCQ{Name: "f1", Disjuncts: []query.CQ{
		mustCQ(t, "f1(x) <- A(x)"), mustCQ(t, "f1(x) <- B(x)"),
	}}
	frag2 := query.UCQ{Name: "f2", Disjuncts: []query.CQ{
		mustCQ(t, "f2(x, y) <- R(x, y)"),
	}}
	j := query.JUCQ{Name: "q_or", Head: []query.Term{query.Var("x"), query.Var("y")},
		Subs: []query.UCQ{frag1, frag2}}
	lo, err := Extract(FromJUCQ(j))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindJUCQ {
		t.Fatalf("kind = %s", lo.Kind)
	}
	if !reflect.DeepEqual(lo.JUCQ, j) {
		t.Errorf("round trip changed the JUCQ:\n got %v\nwant %v", lo.JUCQ, j)
	}

	single := query.JUCQ{Name: "q_or", Head: frag1.Head(), Subs: []query.UCQ{frag1}}
	lo, err = Extract(FromJUCQ(single))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindUCQ {
		t.Fatalf("single-fragment kind = %s, want ucq", lo.Kind)
	}
	if !reflect.DeepEqual(lo.UCQ, frag1) {
		t.Errorf("single-fragment round trip changed the UCQ")
	}
}

// TestUSCQRoundTrip: factorized queries keep their block structure
// through the IR (Access nodes hold whole blocks).
func TestUSCQRoundTrip(t *testing.T) {
	u := query.UCQ{Name: "u", Disjuncts: []query.CQ{
		mustCQ(t, "q(x) <- A(x), R(x, y)"),
		mustCQ(t, "q(x) <- A(x), S(x, y)"),
		mustCQ(t, "q(x) <- B(x), R(x, y)"),
		mustCQ(t, "q(x) <- B(x), S(x, y)"),
	}}
	f := query.FactorizeUCQ(u)
	lo, err := Extract(FromUSCQ(f))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindUSCQ {
		t.Fatalf("kind = %s", lo.Kind)
	}
	if !reflect.DeepEqual(lo.USCQ, f) {
		t.Errorf("round trip changed the USCQ:\n got %v\nwant %v", lo.USCQ, f)
	}
	jf := query.JUSCQ{Name: "j", Head: f.Expand().Head(), Subs: []query.USCQ{f, f}}
	lo, err = Extract(FromJUSCQ(jf))
	if err != nil {
		t.Fatal(err)
	}
	if lo.Kind != KindJUSCQ || !reflect.DeepEqual(lo.JUSCQ, jf) {
		t.Errorf("JUSCQ round trip changed the query (kind %s)", lo.Kind)
	}
}

// shape returns the ops of the arm body, root-first.
func bodyShape(t *testing.T, q query.CQ) *Node {
	t.Helper()
	n := FromCQ(q)
	if n.Op != OpProject || len(n.Inputs) != 1 {
		t.Fatalf("arm root = %s", n.Op)
	}
	return n.Inputs[0]
}

// TestSemiJoinClassification: existential atoms that only restrict the
// core become semijoin reducers; anything visible in the head or
// shared with another non-core atom must stay in the join.
func TestSemiJoinClassification(t *testing.T) {
	// R(x,y) only restricts x: y is private and not in the head.
	body := bodyShape(t, mustCQ(t, "q(x) <- A(x), R(x, y)"))
	if body.Op != OpSemiJoin || len(body.Inputs) != 2 {
		t.Fatalf("shape = %v", body)
	}
	if body.Inputs[0].Op != OpAccess || body.Inputs[0].Pos != 0 {
		t.Errorf("core = %v", body.Inputs[0])
	}
	if body.Inputs[1].Pos != 1 {
		t.Errorf("reducer = %v", body.Inputs[1])
	}

	// y is a head variable: R must join, not reduce.
	body = bodyShape(t, mustCQ(t, "q(x, y) <- A(x), R(x, y)"))
	if body.Op != OpJoin {
		t.Errorf("head-variable case: shape = %s, want join", body.Op)
	}

	// R and S share the existential variable y: neither has a private
	// variable, so semijoining either independently is off the table —
	// all three atoms join.
	body = bodyShape(t, mustCQ(t, "q(x) <- A(x), R(x, y), S(x, y)"))
	if body.Op != OpJoin || len(body.Inputs) != 3 {
		t.Errorf("shared-existential case: shape = %v, want 3-way join", body)
	}

	// S(y,z) dangles off R through y with z private: S reduces, R
	// (whose y is shared) stays in the core.
	body = bodyShape(t, mustCQ(t, "q(x) <- R(x, y), S(y, z)"))
	if body.Op != OpSemiJoin || len(body.Inputs) != 2 {
		t.Fatalf("dangling case: shape = %v", body)
	}
	if body.Inputs[0].Pos != 0 || body.Inputs[1].Pos != 1 {
		t.Errorf("dangling case: core/reducer = %v / %v", body.Inputs[0], body.Inputs[1])
	}

	// Classification never changes extraction: the CQ reassembles
	// identically from any split.
	for _, s := range []string{
		"q(x) <- A(x), R(x, y)",
		"q(x) <- A(x), R(x, y), S(x, y)",
		"q(x) <- R(x, y), S(y, z), T(z, w)",
	} {
		q := mustCQ(t, s)
		u := query.UCQ{Name: "u", Disjuncts: []query.CQ{q}}
		lo, err := Extract(FromUCQ(u))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lo.UCQ.Disjuncts[0], q) {
			t.Errorf("%s: extraction changed the CQ to %v", s, lo.UCQ.Disjuncts[0])
		}
	}
}

// TestExtractRejectsMalformed: malformed trees error instead of
// panicking.
func TestExtractRejectsMalformed(t *testing.T) {
	cases := []*Node{
		nil,
		{Op: OpUnion},
		{Op: OpDistinct},
		{Op: OpDistinct, Inputs: []*Node{{Op: OpAccess}}},
		{Op: OpDistinct, Inputs: []*Node{{Op: OpProject, Inputs: []*Node{{Op: OpAccess}}}}},
		{Op: OpDistinct, Inputs: []*Node{{Op: OpUnion, Inputs: []*Node{{Op: OpJoin}}}}},
	}
	for i, n := range cases {
		if _, err := Extract(n); err == nil {
			t.Errorf("case %d: no error for malformed tree", i)
		}
	}
}

// TestExplainJSONRoundTrip: the EXPLAIN annotation survives JSON
// encode/decode with estimated and actual figures intact (the server
// serves exactly this structure).
func TestExplainJSONRoundTrip(t *testing.T) {
	u := query.UCQ{Name: "u", Disjuncts: []query.CQ{mustCQ(t, "q(x) <- A(x), R(x, y)")}}
	root, at := Skeleton(FromUCQ(u), nil)
	for _, e := range at {
		e.EstRows, e.EstCost, e.ActualRows = 7.5, 12.25, 42
	}
	ex := &Explain{Backend: "native", EstCost: 123.5, EstCard: 7.5, Root: root}
	blob, err := json.Marshal(ex)
	if err != nil {
		t.Fatal(err)
	}
	var back Explain
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, ex) {
		t.Errorf("JSON round trip changed the explain:\n got %+v\nwant %+v", &back, ex)
	}
	text := ex.Text()
	for _, want := range []string{"backend=native", "distinct", "union", "semijoin", "A(x)", "actual=42"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
}

// TestSkeletonCoversEveryNode: every IR node gets exactly one explain
// node, initialized to unknown.
func TestSkeletonCoversEveryNode(t *testing.T) {
	j := query.JUCQ{Name: "j", Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{
		{Name: "f1", Disjuncts: []query.CQ{mustCQ(t, "f1(x) <- A(x)")}},
		{Name: "f2", Disjuncts: []query.CQ{mustCQ(t, "f2(x) <- B(x)")}},
	}}
	n := FromJUCQ(j)
	root, at := Skeleton(n, nil)
	count := 0
	var walk func(*Node)
	walk = func(m *Node) {
		count++
		e := at[m]
		if e == nil {
			t.Fatalf("node %s has no explain entry", m.Op)
		}
		if e.EstRows != UnknownRows || e.ActualRows != UnknownRows {
			t.Errorf("node %s not initialized to unknown", m.Op)
		}
		for _, in := range m.Inputs {
			walk(in)
		}
	}
	walk(n)
	var countEx func(*ExplainNode) int
	countEx = func(e *ExplainNode) int {
		total := 1
		for _, c := range e.Children {
			total += countEx(c)
		}
		return total
	}
	if got := countEx(root); got != count {
		t.Errorf("skeleton has %d nodes, IR has %d", got, count)
	}
}

// TestExplainTemplateMatchesSkeleton: FlatSkeleton and a template's
// copies are the skeleton, node for node, and a copy shares no node
// with the template's other copies.
func TestExplainTemplateMatchesSkeleton(t *testing.T) {
	j := query.JUCQ{Name: "j", Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{
		{Name: "f1", Disjuncts: []query.CQ{mustCQ(t, "f1(x) <- A(x)"), mustCQ(t, "f1(x) <- R(x, y), B(y)")}},
		{Name: "f2", Disjuncts: []query.CQ{mustCQ(t, "f2(x) <- B(x)")}},
	}}
	n := FromJUCQ(j)
	root, at := Skeleton(n, nil)
	flat := FlatSkeleton(n, nil, func(i int, m *Node) {
		if at[m] == nil || at[m].Op != m.Op.String() {
			t.Errorf("node %d (%s) has no matching skeleton node", i, m.Op)
		}
	})
	if !reflect.DeepEqual(&flat[0], root) {
		t.Errorf("FlatSkeleton differs from Skeleton")
	}
	tmpl := NewExplainTemplate(n)
	a, b := tmpl.New(nil), tmpl.New(nil)
	if !reflect.DeepEqual(&a[0], root) || !reflect.DeepEqual(&b[0], root) {
		t.Fatalf("template copy differs from Skeleton")
	}
	for i := range a {
		a[i].ActualRows = int64(i)
	}
	a[len(a)-1].EstRows = 3
	if !reflect.DeepEqual(&b[0], root) || !reflect.DeepEqual(&tmpl.New(nil)[0], root) {
		t.Errorf("annotating one copy changed another")
	}
	own := map[*ExplainNode]bool{}
	for i := range a {
		own[&a[i]] = true
	}
	for i := range a {
		for _, c := range a[i].Children {
			if !own[c] {
				t.Fatalf("node %d (%s) has a child outside its copy", i, a[i].Op)
			}
		}
	}
}

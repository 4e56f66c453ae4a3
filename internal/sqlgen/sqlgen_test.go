package sqlgen

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// cqSQL renders one CQ as the single SELECT of its one-arm union.
func cqSQL(q query.CQ, o Options) string {
	return UCQ(query.UCQ{Disjuncts: []query.CQ{q}}, o)
}

// scqSQL renders one SCQ as the single SELECT of its one-arm union.
func scqSQL(t *testing.T, s query.SCQ, o Options) string {
	t.Helper()
	var b strings.Builder
	if _, err := writeUnion(&writer{b: &b}, plan.FromUSCQ(query.USCQ{Disjuncts: []query.SCQ{s}}), o); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCQSimpleLayout(t *testing.T) {
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	sql := cqSQL(q, Options{Layout: engine.LayoutSimple})
	for _, want := range []string{
		"SELECT DISTINCT",
		"c_PhDStudent t0",
		"r_worksWith t1",
		"t0.id = t1.o",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}

func TestCQConstants(t *testing.T) {
	q := query.MustParseCQ("q(x) <- worksWith(x, 'Francois')")
	sql := cqSQL(q, Options{Layout: engine.LayoutSimple})
	if !strings.Contains(sql, "t0.o = 'Francois'") {
		t.Errorf("constant condition missing:\n%s", sql)
	}
}

func TestBooleanCQ(t *testing.T) {
	q := query.CQ{Name: "b", Atoms: []query.Atom{query.ConceptAtom("A", query.Var("x"))}}
	sql := cqSQL(q, Options{Layout: engine.LayoutSimple})
	if !strings.Contains(sql, "SELECT DISTINCT 1") {
		t.Errorf("boolean head missing:\n%s", sql)
	}
}

func TestUCQUnion(t *testing.T) {
	u := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("q(x) <- A(x)"),
		query.MustParseCQ("q(x) <- B(x)"),
	}}
	sql := UCQ(u, Options{Layout: engine.LayoutSimple})
	if strings.Count(sql, "UNION") != 1 {
		t.Errorf("want exactly 1 UNION:\n%s", sql)
	}
}

func TestRDFLayoutBlowup(t *testing.T) {
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x), supervisedBy(x, z)")
	simple := cqSQL(q, Options{Layout: engine.LayoutSimple})
	rdf := cqSQL(q, Options{Layout: engine.LayoutRDF})
	if len(rdf) < 5*len(simple) {
		t.Errorf("RDF SQL should be much longer: %d vs %d bytes", len(rdf), len(simple))
	}
	if !strings.Contains(rdf, "CASE WHEN pred0") {
		t.Errorf("RDF role access must expand hashed columns:\n%s", rdf[:200])
	}
	if !strings.Contains(rdf, "rdf:type") {
		t.Error("RDF concept access must go through rdf:type")
	}
	// Every hashed column of every role atom appears.
	if got := strings.Count(rdf, "pred11"); got < 3 {
		t.Errorf("expected all %d slots rendered per atom, pred11 count = %d", engine.DefaultRDFSlots, got)
	}
}

func TestJUCQWithShape(t *testing.T) {
	j := query.JUCQ{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Subs: []query.UCQ{
			{Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- A(x)")}},
			{Disjuncts: []query.CQ{
				query.MustParseCQ("f2(x, y) <- R(x, y)"),
				query.MustParseCQ("f2(x, y) <- S(x, y)"),
			}},
		},
	}
	sql := JUCQ(j, Options{Layout: engine.LayoutSimple})
	for _, want := range []string{
		"WITH f1 AS (",
		"f2 AS (",
		"UNION",
		"FROM f1, f2",
		"f1.h0 = f2.h0",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}

func TestJUSCQ(t *testing.T) {
	j := query.JUSCQ{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Subs: []query.USCQ{
			{Disjuncts: []query.SCQ{{
				Name: "f1",
				Head: []query.Term{query.Var("x")},
				Blocks: [][]query.Atom{
					{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("B", query.Var("x"))},
				},
			}}},
		},
	}
	sql := JUSCQ(j, Options{Layout: engine.LayoutSimple})
	if !strings.Contains(sql, "WITH f1 AS (") || !strings.Contains(sql, "UNION SELECT") {
		t.Errorf("JUSCQ shape wrong:\n%s", sql)
	}
}

func TestSCQFactorizedShape(t *testing.T) {
	s := query.SCQ{
		Name: "q",
		Head: []query.Term{query.Var("x")},
		Blocks: [][]query.Atom{
			{query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("B", query.Var("x"))},
			{query.RoleAtom("R", query.Var("x"), query.Var("y"))},
		},
	}
	sql := scqSQL(t, s, Options{Layout: engine.LayoutSimple})
	for _, want := range []string{"b0.id = b1.s", "UNION SELECT id FROM c_B"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in:\n%s", want, sql)
		}
	}
}

func TestSanitize(t *testing.T) {
	q := query.CQ{Name: "q", Head: []query.Term{query.Var("x")},
		Atoms: []query.Atom{query.ConceptAtom("weird-name.x", query.Var("x"))}}
	sql := cqSQL(q, Options{Layout: engine.LayoutSimple})
	if !strings.Contains(sql, "c_weird_name_x") {
		t.Errorf("identifier not sanitized:\n%s", sql)
	}
}

func TestPrettyVsCompact(t *testing.T) {
	q := query.MustParseCQ("q(x) <- A(x), R(x, y)")
	pretty := cqSQL(q, Options{Layout: engine.LayoutSimple, Pretty: true})
	compact := cqSQL(q, Options{Layout: engine.LayoutSimple})
	if !strings.Contains(pretty, "\n") {
		t.Error("pretty output should contain newlines")
	}
	if strings.Contains(compact, "\n") {
		t.Error("compact output should not contain newlines")
	}
}

// TestStatementLengthGrowsLinearly: the statement-size accounting the
// experiments rely on — union arms add length proportionally.
func TestStatementLengthGrowsLinearly(t *testing.T) {
	mk := func(n int) query.UCQ {
		u := query.UCQ{}
		for i := 0; i < n; i++ {
			u.Disjuncts = append(u.Disjuncts, query.MustParseCQ("q(x) <- A(x), R(x, y), B(y)"))
		}
		return u
	}
	l10 := len(UCQ(mk(10), Options{Layout: engine.LayoutSimple}))
	l100 := len(UCQ(mk(100), Options{Layout: engine.LayoutSimple}))
	ratio := float64(l100) / float64(l10)
	if ratio < 8 || ratio > 12 {
		t.Errorf("length should scale ~10x: %d -> %d (%.1fx)", l10, l100, ratio)
	}
}

// TestRenderRewrittenTree: the collapsed single-arm unions Rewrite
// leaves render exactly as the unions they replace, for covers and
// single fragments, factorized or not.
func TestRenderRewrittenTree(t *testing.T) {
	f1 := query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ("f1(x) <- A(x), R(x, 'c')")}}
	f2 := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("f2(x, y) <- R(x, y)"), query.MustParseCQ("f2(x, y) <- S(x, y)")}}
	x := []query.Term{query.Var("x")}
	for _, n := range []*plan.Node{
		plan.FromJUCQ(query.JUCQ{Name: "q", Head: x, Subs: []query.UCQ{f1, f2}}),
		plan.FromJUCQ(query.JUCQ{Name: "q", Head: x, Subs: []query.UCQ{f1}}),
		plan.FromJUSCQ(query.JUSCQ{Name: "q", Head: x, Subs: []query.USCQ{query.FactorizeUCQ(f1), query.FactorizeUCQ(f2)}}),
	} {
		o := Options{Layout: engine.LayoutSimple}
		want, err := Render(n, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Render(plan.Rewrite(n), o)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("rewritten tree renders\n%s\nwant\n%s", got, want)
		}
	}
}

// TestRenderRejectsMalformed: a tree that is neither a cover nor a
// union of arm projections renders nothing.
func TestRenderRejectsMalformed(t *testing.T) {
	acc := &plan.Node{Op: plan.OpAccess, Atoms: []query.Atom{
		query.ConceptAtom("A", query.Var("x")), query.ConceptAtom("B", query.Var("x"))}}
	for name, n := range map[string]*plan.Node{
		"bare join":       {Op: plan.OpJoin},
		"non-project arm": {Op: plan.OpDistinct, Inputs: []*plan.Node{{Op: plan.OpUnion, Inputs: []*plan.Node{acc}}}},
		"multi-atom non-factorized access": {Op: plan.OpDistinct, Inputs: []*plan.Node{
			{Op: plan.OpProject, Head: []query.Term{query.Var("x")}, Inputs: []*plan.Node{acc}}}},
	} {
		if sql, err := Render(n, Options{}); err == nil {
			t.Errorf("%s: rendered %q, want an error", name, sql)
		}
	}
}

// TestLiteralQuotesEscaped: a quote inside a constant or a predicate
// name is doubled in every literal, so the statement stays well formed.
func TestLiteralQuotesEscaped(t *testing.T) {
	q := query.CQ{Name: "q", Head: []query.Term{query.Var("x"), query.Cst("it's")},
		Atoms: []query.Atom{query.RoleAtom("worksFor", query.Var("x"), query.Cst("O'Brien Lab"))}}
	simple := cqSQL(q, Options{Layout: engine.LayoutSimple})
	for _, want := range []string{"'it''s' AS h1", "t0.o = 'O''Brien Lab'"} {
		if !strings.Contains(simple, want) {
			t.Errorf("missing %q in:\n%s", want, simple)
		}
	}
	c := query.CQ{Name: "q", Head: []query.Term{query.Var("x")},
		Atoms: []query.Atom{query.ConceptAtom("A'B", query.Var("x")), query.RoleAtom("r'", query.Var("x"), query.Var("y"))}}
	rdf := cqSQL(c, Options{Layout: engine.LayoutRDF})
	for _, want := range []string{"val0 = 'class:A''B'", "WHEN pred0 = 'r''' THEN val0", "OR pred1 = 'r'''"} {
		if !strings.Contains(rdf, want) {
			t.Errorf("missing %q in:\n%s", want, rdf)
		}
	}
}

// TestSizeMatchesRender: Measure counts exactly the bytes Render writes,
// whatever the layout, formatting or arm shape.
func TestSizeMatchesRender(t *testing.T) {
	x, y := query.Var("x"), query.Var("y")
	f1 := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("f1(x) <- A(x), R(x, 'c')"),
		query.MustParseCQ("f1(x) <- B(x), S(x, x)"),
	}}
	f2 := query.UCQ{Disjuncts: []query.CQ{
		query.MustParseCQ("f2(x, y) <- R(x, y)"), query.MustParseCQ("f2(x, y) <- weird-name(x, y)")}}
	quoted := query.UCQ{Disjuncts: []query.CQ{{Name: "q", Head: []query.Term{x, query.Cst("it's")},
		Atoms: []query.Atom{query.RoleAtom("worksFor", x, query.Cst("O'Brien Lab")), query.ConceptAtom("A'B", x)}}}}
	boolean := query.UCQ{Disjuncts: []query.CQ{{Name: "b", Atoms: []query.Atom{query.RoleAtom("R", x, y)}}}}
	trees := map[string]*plan.Node{
		"cover":           plan.FromJUCQ(query.JUCQ{Name: "q", Head: []query.Term{x}, Subs: []query.UCQ{f1, f2}}),
		"fragment":        plan.FromUCQ(f1),
		"rewritten":       plan.Rewrite(plan.FromJUCQ(query.JUCQ{Name: "q", Head: []query.Term{x}, Subs: []query.UCQ{f1}})),
		"factorized":      plan.FromJUSCQ(query.JUSCQ{Name: "q", Head: []query.Term{x}, Subs: []query.USCQ{query.FactorizeUCQ(f1), query.FactorizeUCQ(f2)}}),
		"head constant":   plan.FromUCQ(quoted),
		"empty head":      plan.FromUCQ(boolean),
		"empty head join": plan.FromJUCQ(query.JUCQ{Name: "b", Subs: []query.UCQ{f1, f2}}),
	}
	for name, n := range trees {
		for _, o := range []Options{
			{Layout: engine.LayoutSimple}, {Layout: engine.LayoutSimple, Pretty: true},
			{Layout: engine.LayoutRDF}, {Layout: engine.LayoutRDF, Pretty: true, Slots: 3},
		} {
			sql, err := Render(n, o)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, o, err)
			}
			size, err := Measure(n, o)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, o, err)
			}
			if size.Len(nil) != len(sql) {
				t.Errorf("%s %+v: Measure = %d, len(Render) = %d", name, o, size.Len(nil), len(sql))
			}
		}
	}
	if _, err := Measure(&plan.Node{Op: plan.OpJoin}, Options{}); err == nil {
		t.Error("Measure of a malformed tree: want Render's error")
	}

	// Parameterized trees: the statement rendered with Args is the
	// instance's own, and Measure's per-parameter count gives its exact
	// length.
	p0, p1 := query.Param(0), query.Param(1)
	pf1 := query.UCQ{Disjuncts: []query.CQ{
		{Name: "f1", Head: []query.Term{x}, Atoms: []query.Atom{query.ConceptAtom("A", x), query.RoleAtom("R", x, p0)}},
		{Name: "f1", Head: []query.Term{x}, Atoms: []query.Atom{query.RoleAtom("R", p1, x), query.RoleAtom("S", x, p0)}},
	}}
	pquoted := query.UCQ{Disjuncts: []query.CQ{{Name: "q", Head: []query.Term{x, p1},
		Atoms: []query.Atom{query.RoleAtom("worksFor", x, p0), query.ConceptAtom("A'B", x)}}}}
	for name, n := range map[string]*plan.Node{
		"cover":         plan.FromJUCQ(query.JUCQ{Name: "q", Head: []query.Term{x}, Subs: []query.UCQ{pf1, f2}}),
		"fragment":      plan.FromUCQ(pf1),
		"factorized":    plan.FromJUSCQ(query.JUSCQ{Name: "q", Head: []query.Term{x}, Subs: []query.USCQ{query.FactorizeUCQ(pf1), query.FactorizeUCQ(f2)}}),
		"head constant": plan.FromUCQ(pquoted),
	} {
		for _, args := range [][]string{{"O'Brien Lab", "it's"}, {"c", ""}, {"''", "x'y'z"}} {
			for _, o := range []Options{
				{Layout: engine.LayoutSimple}, {Layout: engine.LayoutSimple, Pretty: true},
				{Layout: engine.LayoutRDF, Slots: 3},
			} {
				measured, err := Measure(n, o)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, o, err)
				}
				if _, err := Render(n, o); err == nil {
					t.Errorf("%s %+v: rendered without arguments", name, o)
				}
				o.Args = args
				sql, err := Render(n, o)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, o, err)
				}
				if want, _ := Render(bindTree(n, args), Options{Layout: o.Layout, Pretty: o.Pretty, Slots: o.Slots}); sql != want {
					t.Errorf("%s %+v: rendered\n%s\nwant the instance's\n%s", name, o, sql, want)
				}
				if measured.Len(args) != len(sql) {
					t.Errorf("%s %+v: Measure = %d, len(Render) = %d", name, o, measured.Len(args), len(sql))
				}
			}
		}
	}
}

// bindTree returns a copy of a parameterized tree with every parameter
// bound to its argument.
func bindTree(n *plan.Node, args []string) *plan.Node {
	m := *n
	m.Atoms = make([]query.Atom, len(n.Atoms))
	for i, at := range n.Atoms {
		m.Atoms[i] = query.CQ{Atoms: []query.Atom{at}}.Bind(args).Atoms[0]
	}
	m.Head = query.CQ{Head: n.Head}.Bind(args).Head
	m.Inputs = make([]*plan.Node, len(n.Inputs))
	for i, in := range n.Inputs {
		m.Inputs[i] = bindTree(in, args)
	}
	return &m
}

// TestSizeAllocBound guards the statement-size count core runs on
// every cold plan: it builds no text, so LUBM Q9/ucq (115,783 bytes of
// SQL, 300 arms) costs about one allocation per arm. Measured on
// go1.24/amd64 it allocates about 29 KiB; rendering the same statement
// allocated 1,010 KiB before the writers were made allocation-lean.
func TestSizeAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds are measured without the race detector")
	}
	u, err := reformulate.New(lubm.TBox()).Reformulate(lubm.Queries()[8])
	if err != nil {
		t.Fatal(err)
	}
	n := plan.Rewrite(plan.FromUCQ(u))
	o := Options{Layout: engine.LayoutSimple}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Measure(n, o); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Q9/ucq: %d bytes per Measure", perRun)
	const bound = 128 << 10
	if perRun > bound {
		t.Errorf("Q9/ucq: Measure allocates %d bytes, bound %d", perRun, bound)
	}
}

package core

// Prepared plans: a query's constants are parameters of its template,
// so every instance of a template shares one search, one compiled plan
// and one answer-cache entry, and each run binds its own constants.

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/naive"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/sqlexec"
)

// templateABox is a small knowledge base over the LUBM vocabulary with
// 64 individuals for each template slot below: courses (T1), members
// (T3) and teachers (T6). Some type assertions are left for the TBox to
// derive.
func templateABox() *dllite.ABox {
	ab := dllite.NewABox()
	role := func(r, s, o string) { ab.Add(dllite.RoleAssertion(r, s, o)) }
	concept := func(c, s string) { ab.Add(dllite.ConceptAssertion(c, s)) }
	for i := 0; i < 64; i++ {
		course := fmt.Sprintf("Course%d", i)
		role("teacherOf", fmt.Sprintf("Prof%d", i), course)
		if i%4 == 0 {
			role("teacherOf", fmt.Sprintf("Prof%d", i), fmt.Sprintf("Course%d", (i+1)%64))
		}
		p, dept := fmt.Sprintf("Member%d", i), fmt.Sprintf("Dept%d", i%8)
		switch i % 3 {
		case 0:
			role("memberOf", p, dept)
		case 1:
			role("worksFor", p, dept)
		default:
			role("headOf", p, dept)
		}
		if i%5 == 0 {
			concept("FullProfessor", p)
		}
	}
	for j := 0; j < 100; j++ {
		s := fmt.Sprintf("Stud%d", j)
		role("takesCourse", s, fmt.Sprintf("Course%d", j%64))
		role("takesCourse", s, fmt.Sprintf("Course%d", (j*7)%64))
		switch j % 3 {
		case 0:
			concept("UndergraduateStudent", s)
		case 1:
			concept("GraduateStudent", s)
		}
	}
	return ab
}

// templateShapes are the templates: T1-, T3- and T6-shaped queries of
// the zipf_serve benchmark, %s standing for the constant, and one whose
// reformulation binds the head to the parameter (PerfectRef's reduce
// step unifies the two atoms: R(?0) <- takesCourse(?0, c)).
var templateShapes = []struct{ text, slot string }{
	{"T1(x) <- takesCourse(x, '%s')", "Course"},
	{"T3(y) <- Person('%s'), memberOf('%s', y)", "Member"},
	{"T6(s) <- Student(s), takesCourse(s, c), teacherOf('%s', c)", "Prof"},
	{"R(x) <- takesCourse(x, c), takesCourse('%s', c)", "Stud"},
}

// instance fills a template's constant slots with ind.
func instance(text, ind string) query.CQ {
	return query.MustParseCQ(strings.ReplaceAll(text, "%s", ind))
}

// certain answers q over ab by naive evaluation of its UCQ
// reformulation, as sorted renders them.
func certain(t *testing.T, tb *dllite.TBox, q query.CQ, ab *dllite.ABox) []string {
	t.Helper()
	u, err := reformulate.New(tb).Reformulate(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tu := range naive.EvalUCQ(u, ab).Sorted() {
		out = append(out, strings.Join(tu, "\x00"))
	}
	return out
}

// TestOnePlanPerTemplate: 64 constants of each template, under every
// strategy, plan once per (template, strategy) — every later instance
// is a cache hit — and each answers what naive evaluation of its own
// reformulation answers.
func TestOnePlanPerTemplate(t *testing.T) {
	tb, ab := lubm.TBox(), templateABox()
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(ab)
	a := New(tb, db, engine.ProfilePostgres())
	for _, shape := range templateShapes {
		for i := 0; i < 64; i++ {
			q := instance(shape.text, fmt.Sprintf("%s%d", shape.slot, i))
			want := certain(t, tb, q, ab)
			for _, s := range Strategies() {
				res, err := a.Answer(q, s)
				if err != nil {
					t.Fatalf("%s/%s: %v", q, s, err)
				}
				if got := sorted(res.Tuples); !slices.Equal(got, want) {
					t.Errorf("%s/%s: answers %v, want %v", q, s, got, want)
				}
				if res.CacheHit != (i > 0) {
					t.Errorf("%s/%s: cache hit %v", q, s, res.CacheHit)
				}
				if len(res.Args) != 1 {
					t.Errorf("%s/%s: args %q, want the one constant", q, s, res.Args)
				}
			}
		}
	}
	if n, want := a.Cache.Len(), len(templateShapes)*len(Strategies()); n != want {
		t.Errorf("%d cache entries, want one per template and strategy: %d", n, want)
	}

	// A constant the dictionary does not hold answers nothing, through
	// the cached plan of its template.
	for _, s := range Strategies() {
		res, err := a.Answer(instance(templateShapes[0].text, "NoSuchCourse"), s)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || len(res.Tuples) != 0 {
			t.Errorf("%s: absent constant: cache hit %v, answers %v", s, res.CacheHit, res.Tuples)
		}
	}
}

// TestEqualConstantsShareAParameter: a query repeating one constant and
// one with two distinct constants are different templates, each
// answering what naive evaluation answers. A third template's first
// constant decides the answer alone, through atoms the plan can only
// check per run: it names an undergraduate in one instance and not in
// the next.
func TestEqualConstantsShareAParameter(t *testing.T) {
	tb, ab := lubm.TBox(), templateABox()
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(ab)
	a := New(tb, db, engine.ProfilePostgres())
	same := query.MustParseCQ("q(y) <- Person('Member0'), memberOf('Member0', y)")
	distinct := query.MustParseCQ("q(y) <- Person('Member5'), memberOf('Member0', y)")
	undergrad := query.MustParseCQ("q(y) <- UndergraduateStudent('Stud0'), takesCourse('Stud1', y)")
	graduate := query.MustParseCQ("q(y) <- UndergraduateStudent('Stud1'), takesCourse('Stud0', y)")
	for _, s := range Strategies() {
		for _, q := range []query.CQ{same, distinct, undergrad, graduate, undergrad} {
			res, err := a.Answer(q, s)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sorted(res.Tuples), certain(t, tb, q, ab); !slices.Equal(got, want) {
				t.Errorf("%s/%s: answers %v, want %v", q, s, got, want)
			}
		}
	}
	if n, want := a.Cache.Len(), 3*len(Strategies()); n != want {
		t.Errorf("%d cache entries, want %d", n, want)
	}
}

// TestConstantWrittenAfterPlanning: a constant first written by
// AddRoleFact + Finalize is found, by a plan whose run states were
// built and pooled before it existed.
func TestConstantWrittenAfterPlanning(t *testing.T) {
	tb, ab := lubm.TBox(), templateABox()
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(ab)
	a := New(tb, db, engine.ProfilePostgres())
	text := templateShapes[0].text
	for _, s := range Strategies() {
		res, err := a.Answer(instance(text, "NewCourse"), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 0 {
			t.Fatalf("%s: answers %v before the write", s, res.Tuples)
		}
	}
	db.AddRoleFact("takesCourse", "NewStudent", "NewCourse")
	db.Finalize()
	ab.Add(dllite.RoleAssertion("takesCourse", "NewStudent", "NewCourse"))
	want := certain(t, tb, instance(text, "NewCourse"), ab)
	if !slices.Equal(want, []string{"NewStudent"}) {
		t.Fatalf("naive answers %v", want)
	}
	for _, s := range Strategies() {
		// Plan and pool at the new version with another constant, then
		// rerun the pooled plan with the new one.
		if _, err := a.Answer(instance(text, "Course3"), s); err != nil {
			t.Fatal(err)
		}
		res, err := a.Answer(instance(text, "NewCourse"), s)
		if err != nil {
			t.Fatal(err)
		}
		if got := sorted(res.Tuples); !res.CacheHit || !slices.Equal(got, want) {
			t.Errorf("%s: cache hit %v, answers %v, want %v", s, res.CacheHit, got, want)
		}
	}
}

// bindPlan returns a copy of a parameterized plan with every parameter
// bound: the tree of the instance itself.
func bindPlan(n *plan.Node, args []string) *plan.Node {
	m := *n
	m.Atoms = make([]query.Atom, len(n.Atoms))
	for i, at := range n.Atoms {
		m.Atoms[i] = query.CQ{Atoms: []query.Atom{at}}.Bind(args).Atoms[0]
	}
	m.Head = query.CQ{Head: n.Head}.Bind(args).Head
	m.Inputs = make([]*plan.Node, len(n.Inputs))
	for i, in := range n.Inputs {
		m.Inputs[i] = bindPlan(in, args)
	}
	return &m
}

// TestBoundRunExplainsItsInstance: a run of a cached template plan
// returns, byte for byte, the EXPLAIN (and on the sql backend the
// statement) of the instance's own tree compiled and run directly —
// on a plan's first run and on a pooled rerun with other constants —
// and the template's plan refuses to run without its arguments.
func TestBoundRunExplainsItsInstance(t *testing.T) {
	tb, ab := lubm.TBox(), templateABox()
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(ab)
	prof := engine.ProfilePostgres()
	for _, backend := range []plan.Backend{engine.NewBackend(db, prof), sqlexec.NewBackend(db, prof)} {
		a := New(tb, db, prof)
		for _, shape := range templateShapes {
			for _, s := range Strategies() {
				for _, ind := range []string{"0", "7", "9", "NoSuch"} {
					res, err := a.AnswerWith(instance(shape.text, shape.slot+ind), s, backend)
					if err != nil {
						t.Fatal(err)
					}
					exec, err := backend.Compile(bindPlan(res.Plan, res.Args))
					if err != nil {
						t.Fatal(err)
					}
					direct, err := exec.Run(0)
					if err != nil {
						t.Fatal(err)
					}
					got, _ := json.Marshal(res.Explain)
					want, _ := json.Marshal(direct.Explain)
					if string(got) != string(want) {
						t.Errorf("%s %s/%s: EXPLAIN of the bound run\n%s\nwant that of the instance's plan\n%s",
							backend.Name(), shape.slot+ind, s, res.Explain.Text(), direct.Explain.Text())
					}
					if strings.Contains(res.Explain.Text(), "?0") {
						t.Errorf("%s %s/%s: EXPLAIN shows a parameter:\n%s", backend.Name(), shape.slot+ind, s, res.Explain.Text())
					}
					// The template's plan runs only with its arguments bound.
					tmpl, err := backend.Compile(res.Plan)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := tmpl.Run(0); err == nil {
						t.Errorf("%s %s/%s: the template ran without arguments", backend.Name(), shape.slot+ind, s)
					}
				}
			}
		}
	}
}

// TestShardTemplateConstants: on the shard backend, two constants of
// one template share its compiled plan but never each other's cached
// per-shard answers.
func TestShardTemplateConstants(t *testing.T) {
	tb, ab := lubm.TBox(), templateABox()
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(ab)
	a := New(tb, db, engine.ProfilePostgres())
	sb, err := NewBackendByName("shard", db, a.Profile, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{StrategyUCQ, StrategyCroot, StrategyGDLExt} {
		for _, ind := range []string{"Course0", "Course1", "Course0", "Course1"} {
			q := instance(templateShapes[0].text, ind)
			native, err := a.Answer(q, s)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := a.AnswerWith(q, s, sb)
			if err != nil {
				t.Fatal(err)
			}
			if tmpl, err := sb.Compile(sharded.Plan); err != nil {
				t.Fatal(err)
			} else if _, err := tmpl.Run(0); err == nil {
				t.Errorf("%s/%s: the shard template ran without arguments", ind, s)
			}
			if got, want := sorted(sharded.Tuples), sorted(native.Tuples); !slices.Equal(got, want) || len(want) == 0 {
				t.Errorf("%s/%s: shard answers %v, native %v", ind, s, got, want)
			}
		}
	}
}

package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
)

// TestPlanSurvivesWrites: a plan chosen before a batch of writes
// answers, after them, what naive evaluation of the written ABox
// answers — for every strategy on both layouts, run twice so the second
// run re-opens the pooled tree the first left. The batch writes into
// existing tables, into a role no fact had (degreeFrom, read by Q12)
// and into concepts the queries read that were empty (Article and
// Professor, read by Q3). Each query also goes through the Answerer again, cached
// plan or re-plan alike. EDL runs on the queries of at most four atoms,
// as its exhaustive search is for small queries.
func TestPlanSurvivesWrites(t *testing.T) {
	tb := lubm.TBox()
	ab := lubm.GenerateABox(lubm.Config{Universities: 1, Seed: 1})
	type planned struct {
		res    *Result
		exec   plan.Executable
		before []string
	}
	type side struct {
		db    *engine.DB
		a     *Answerer
		plans []planned
	}
	var sides []*side
	for _, layout := range []engine.Layout{engine.LayoutSimple, engine.LayoutRDF} {
		db := engine.NewDB(layout)
		db.LoadABox(ab)
		sd := &side{db: db, a: New(tb, db, engine.ProfilePostgres())}
		for _, q := range goldenQueries() {
			for _, s := range Strategies() {
				if s == StrategyEDL && len(q.Atoms) > 4 {
					continue
				}
				res, err := sd.a.Answer(q, s)
				if err != nil {
					t.Fatalf("%v %s/%s: %v", layout, q.Name, s, err)
				}
				exec, err := sd.a.backend().Compile(res.Plan)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := exec.Run(1, res.Args...); err != nil { // leaves a pooled tree
					t.Fatal(err)
				}
				sd.plans = append(sd.plans, planned{res, exec, sorted(res.Tuples)})
			}
		}
		sides = append(sides, sd)
	}

	pairs := func(role string) [][2]string {
		var out [][2]string
		for _, as := range ab.Assertions {
			if as.Pred == role {
				out = append(out, [2]string{as.S, as.O})
			}
		}
		return out
	}
	authors, teachers, staff := pairs("authorOf"), pairs("teacherOf"), pairs("worksFor")
	students, advisees := pairs("takesCourse"), pairs("advisedBy")
	write := func(as dllite.Assertion) {
		ab.Add(as)
		for _, sd := range sides {
			if as.IsRole() {
				sd.db.AddRoleFact(as.Pred, as.S, as.O)
			} else {
				sd.db.AddConceptFact(as.Pred, as.S)
			}
		}
	}
	for i := 0; i < 8; i++ {
		// Existing tables: new papers by existing authors, new courses
		// of existing teachers taken by existing students, and a new
		// graduate student advised by an existing advisor.
		paper := fmt.Sprintf("NewPaper%d", i)
		write(dllite.RoleAssertion("authorOf", authors[i][0], paper))
		write(dllite.ConceptAssertion("JournalArticle", paper))
		course := fmt.Sprintf("NewCourse%d", i)
		write(dllite.RoleAssertion("teacherOf", teachers[i][0], course))
		write(dllite.RoleAssertion("takesCourse", students[i][0], course))
		grad := fmt.Sprintf("NewGrad%d", i)
		write(dllite.ConceptAssertion("PhDStudent", grad))
		write(dllite.RoleAssertion("advisedBy", grad, advisees[i][1]))
		write(dllite.RoleAssertion("researchInterest", grad, "Area0"))
		// Tables that did not exist: Q3's new answer (article, prof)
		// needs two of them.
		write(dllite.RoleAssertion("degreeFrom", grad, "Univ0"))
		article, prof := fmt.Sprintf("NewArticle%d", i), fmt.Sprintf("NewProf%d", i)
		write(dllite.ConceptAssertion("Article", article))
		write(dllite.ConceptAssertion("Professor", prof))
		write(dllite.RoleAssertion("authorOf", prof, article))
		write(dllite.RoleAssertion("worksFor", prof, staff[i][1]))
	}

	wants := map[string][]string{}
	changed := 0
	for _, sd := range sides {
		sd.db.Finalize()
		for _, p := range sd.plans {
			q, s := p.res.Query, p.res.Strategy
			want, ok := wants[q.Name]
			if !ok {
				want = certain(t, tb, q, ab)
				wants[q.Name] = want
			}
			if !slices.Equal(want, p.before) {
				changed++
			}
			for run := 0; run < 2; run++ {
				rr, err := p.exec.Run(1, p.res.Args...)
				if err != nil {
					t.Fatal(err)
				}
				if got := sorted(rr.Tuples); !slices.Equal(got, want) {
					t.Errorf("%v %s/%s: the plan of before the writes, run %d, answers %d tuples, want %d", sd.db.Layout, q.Name, s, run, len(got), len(want))
				}
				res, err := sd.a.Answer(q, s)
				if err != nil {
					t.Fatal(err)
				}
				if got := sorted(res.Tuples); !slices.Equal(got, want) {
					t.Errorf("%v %s/%s: Answer after the writes, run %d (cache hit %v), answers %d tuples, want %d", sd.db.Layout, q.Name, s, run, res.CacheHit, len(got), len(want))
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("the writes changed no answer")
	}
}

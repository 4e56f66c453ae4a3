package engine

import (
	"strings"
	"testing"

	"repro/internal/query"
)

// existenceABox: u1 has three graduates, u2 one, u3 and u4 none; s4
// holds no degree; knows has two loops.
const existenceABox = `
University(u1)
University(u2)
University(u3)
University(u4)
Famous(u1)
Famous(u3)
Student(s1)
Student(s2)
Student(s3)
Student(s4)
degreeFrom(s1, u1)
degreeFrom(s2, u1)
degreeFrom(s3, u1)
degreeFrom(s1, u2)
knows(a, a)
knows(b, b)
knows(a, b)
`

// bodyOrder compiles the arm of head over blocks with its blocks as
// the plan steps, in body order, so each case fixes which side of an
// atom is bound. A nil r builds it for a run without arguments, its
// constants bound; otherwise the caller resolves r's arguments.
func bodyOrder(head []query.Term, blocks [][]query.Atom, db *DB, r *run) Operator {
	a := planBlocks(head, blocks, db, ProfilePostgres()).inBodyOrder()
	if r == nil {
		op, _ := buildArm(a, db)
		return op
	}
	op, _ := compileArm(a, r)
	return op
}

// hasOp reports whether the tree has an operator of the given name.
func hasOp(op Operator, name string) bool {
	for _, st := range CollectStats(op) {
		if st.Op == name {
			return true
		}
	}
	return false
}

// TestExistenceProbes: a role atom with one bound side whose other side
// is a variable nothing later reads passes each input row once if it
// has a match (a filter); every other atom keeps enumerating its
// matches (a join or a scan), duplicates and all. Both layouts; a CQ
// is the SCQ of one-atom blocks, so one form covers both.
func TestExistenceProbes(t *testing.T) {
	for _, tc := range []struct {
		name, q string
		want    int    // arm rows, duplicates kept
		op      string // what the existential atom compiles to
	}{
		// Probes.
		{"object side bound", "q(u) <- University(u), degreeFrom(z, u)", 2, "filter(degreeFrom)"},
		{"subject side bound", "q(s) <- Student(s), degreeFrom(s, z)", 3, "filter(degreeFrom)"},
		{"constant side, first step", "q(u) <- degreeFrom(z, 'u1'), University(u)", 4, "filter(degreeFrom)"},
		{"probe then filter", "q(u) <- University(u), degreeFrom(z, u), Famous(u)", 1, "filter(degreeFrom)"},
		// Joins.
		{"variable in the head", "q(u, z) <- University(u), degreeFrom(z, u)", 4, "join(degreeFrom)"},
		{"variable read later", "q(u) <- University(u), degreeFrom(z, u), Student(z)", 4, "join(degreeFrom)"},
		{"R(z, z)", "q(u) <- University(u), knows(z, z)", 8, "join(knows)"},
		{"first-step scan", "q(u) <- degreeFrom(z, u)", 4, "scan(degreeFrom)"},
		{"dead atom", "q(u) <- University(u), degreeFrom(z, 'nobody')", 0, "filter(degreeFrom)"},
	} {
		q := query.MustParseCQ(tc.q)
		for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
			db := loadDB(t, layout, existenceABox)
			op := bodyOrder(q.Head, cqBlocks(q), db, nil)
			if got := len(Drain(op).Rows); got != tc.want {
				t.Errorf("%s (%v): %d rows, want %d", tc.name, layout, got, tc.want)
			}
			if !hasOp(op, tc.op) {
				t.Errorf("%s (%v): no %s in\n%s", tc.name, layout, tc.op, ExplainPipeline(op))
			}
		}
	}
}

// TestExistenceProbeBlocks: an SCQ block whose alternatives are each
// fully bound or an existence probe is one filter, passing a row once
// if any alternative matches it; before, such a block emitted one copy
// per matching alternative and one per neighbour.
func TestExistenceProbeBlocks(t *testing.T) {
	u, z := query.Var("u"), query.Var("z")
	s := query.SCQ{
		Name: "q",
		Head: []query.Term{u},
		Blocks: [][]query.Atom{
			{query.ConceptAtom("University", u)},
			{query.ConceptAtom("Famous", u), query.RoleAtom("degreeFrom", z, u)},
		},
	}
	for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
		db := loadDB(t, layout, existenceABox)
		op := bodyOrder(s.Head, s.Blocks, db, nil)
		rel := Drain(op)
		var got []string
		for _, row := range rel.Rows {
			got = append(got, db.Dict.Decode(row[0]))
		}
		if strings.Join(got, " ") != "u1 u2 u3" {
			t.Errorf("%v: rows %v, want u1 u2 u3 once each", layout, got)
		}
		if !hasOp(op, "filter(Famous|degreeFrom)") {
			t.Errorf("%v: the block is not one filter:\n%s", layout, ExplainPipeline(op))
		}
	}
}

// TestExistenceProbeParameter: a probe whose bound side is a parameter
// resolves it at every Open, so one tree answers each argument — a
// matching one, one without neighbours and one absent from the
// dictionary — and recovers after the dead run.
func TestExistenceProbeParameter(t *testing.T) {
	u, z := query.Var("u"), query.Var("z")
	q := query.CQ{
		Name:  "q",
		Head:  []query.Term{u},
		Atoms: []query.Atom{query.ConceptAtom("University", u), query.RoleAtom("degreeFrom", z, query.Param(0))},
	}
	for _, layout := range []Layout{LayoutSimple, LayoutRDF} {
		db := loadDB(t, layout, existenceABox)
		r := &run{db: db, args: &boundArgs{ids: make([]int64, 1), found: make([]bool, 1)}}
		op := bodyOrder(q.Head, cqBlocks(q), db, r)
		if !hasOp(op, "filter(degreeFrom)") {
			t.Fatalf("%v: the parameter probe is not a filter:\n%s", layout, ExplainPipeline(op))
		}
		for _, run := range []struct {
			arg  string
			want int
		}{{"u1", 4}, {"u3", 0}, {"nobody", 0}, {"u2", 4}} {
			r.args.resolve(db.Dict, []string{run.arg})
			if got := len(Drain(op).Rows); got != run.want {
				t.Errorf("%v, ?0=%s: %d rows, want %d", layout, run.arg, got, run.want)
			}
		}
	}
}

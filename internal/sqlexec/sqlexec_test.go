package sqlexec

import (
	"strings"
	"testing"

	"repro/internal/cover"
	"repro/internal/dllite"
	"repro/internal/engine"
	"repro/internal/lubm"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/reformulate"
	"repro/internal/sqlgen"
)

func testDB(t *testing.T) *engine.DB {
	t.Helper()
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox(`
PhDStudent(Damian)
Researcher(Ioana)
Researcher(Francois)
worksWith(Ioana, Francois)
supervisedBy(Damian, Ioana)
supervisedBy(Damian, Francois)
`))
	return db
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"SELECT",
		"SELECT DISTINCT FROM c_A",
		"SELECT DISTINCT t0.id",
		"SELECT DISTINCT 2 FROM c_A t0",
		"WITH f1 AS SELECT 1",
		"SELECT DISTINCT t0.id FROM c_A t0 WHERE",
		"SELECT DISTINCT t0.id FROM c_A t0 trailing garbage =",
		"SELECT DISTINCT t0.id FROM c_A t0 WHERE t0.id = ",
		"SELECT DISTINCT 'unterminated FROM c_A t0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestSimpleSelect(t *testing.T) {
	db := testDB(t)
	rel, err := Exec("SELECT DISTINCT t0.id AS h0 FROM c_Researcher t0", db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 2 {
		t.Fatalf("rows = %d", len(rel.Rows))
	}
}

func TestJoinAndConstant(t *testing.T) {
	db := testDB(t)
	sql := "SELECT DISTINCT t0.s AS h0 FROM r_supervisedBy t0, r_worksWith t1 " +
		"WHERE t0.o = t1.s AND t1.o = 'Francois'"
	rel, err := Exec(sql, db)
	if err != nil {
		t.Fatal(err)
	}
	got := rel.Decode(db.Dict)
	if len(got) != 1 || got[0][0] != "Damian" {
		t.Fatalf("answers = %v", got)
	}
}

func TestUnknownTableEmpty(t *testing.T) {
	db := testDB(t)
	if _, err := Exec("SELECT DISTINCT t0.id FROM c_Unicorn t0", db); err != nil {
		t.Fatalf("unknown concept table is an empty relation: %v", err)
	}
	if _, err := Exec("SELECT DISTINCT t0.id FROM nope t0", db); err == nil {
		t.Fatal("tables without the c_/r_ prefix must be rejected")
	}
}

func TestMissingConstantYieldsEmpty(t *testing.T) {
	db := testDB(t)
	rel, err := Exec("SELECT DISTINCT t0.s FROM r_worksWith t0 WHERE t0.o = 'Nobody'", db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(rel.Rows))
	}
}

func TestUnionDistinct(t *testing.T) {
	db := testDB(t)
	sql := "SELECT DISTINCT t0.id AS h0 FROM c_Researcher t0 UNION " +
		"SELECT DISTINCT t0.id AS h0 FROM c_Researcher t0"
	rel, err := Exec(sql, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 2 {
		t.Fatalf("union must deduplicate: %d rows", len(rel.Rows))
	}
}

// TestBooleanHead: a true boolean query answers one empty tuple, as
// the native backend does.
func TestBooleanHead(t *testing.T) {
	db := testDB(t)
	rel, err := Exec("SELECT DISTINCT 1 FROM c_PhDStudent t0", db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) != 1 {
		t.Fatalf("boolean true = %d rows", len(rel.Rows))
	}
	if got := rel.Decode(db.Dict); len(got[0]) != 0 {
		t.Fatalf("boolean decodes to %q, want one empty tuple", got[0])
	}
}

func TestWithClause(t *testing.T) {
	db := testDB(t)
	sql := "WITH f1 AS (SELECT DISTINCT t0.s AS h0, t0.o AS h1 FROM r_supervisedBy t0), " +
		"f2 AS (SELECT DISTINCT t0.id AS h0 FROM c_Researcher t0) " +
		"SELECT DISTINCT f1.h0 FROM f1, f2 WHERE f1.h1 = f2.h0"
	rel, err := Exec(sql, db)
	if err != nil {
		t.Fatal(err)
	}
	got := rel.Decode(db.Dict)
	if len(got) != 1 || got[0][0] != "Damian" {
		t.Fatalf("answers = %v", got)
	}
}

func TestRDFLayoutRejected(t *testing.T) {
	db := engine.NewDB(engine.LayoutRDF)
	db.LoadABox(dllite.MustParseABox("A(a)"))
	if _, err := Exec("SELECT DISTINCT t0.id FROM c_A t0", db); err == nil {
		t.Fatal("RDF-layout databases must be rejected")
	}
}

func TestSameVariableTwiceInAtom(t *testing.T) {
	db := engine.NewDB(engine.LayoutSimple)
	db.LoadABox(dllite.MustParseABox("R(a, a)\nR(a, b)"))
	// sqlgen renders q(x) <- R(x,x) with a self-equality condition.
	sql := sqlgen.UCQ(query.UCQ{Disjuncts: []query.CQ{query.MustParseCQ("q(x) <- R(x, x)")}}, sqlgen.Options{Layout: engine.LayoutSimple})
	rel, err := Exec(sql, db)
	if err != nil {
		t.Fatalf("%v\nsql: %s", err, sql)
	}
	got := rel.Decode(db.Dict)
	if len(got) != 1 || got[0][0] != "a" {
		t.Fatalf("diagonal = %v", got)
	}
}

// relSet collapses a decoded relation to a tuple set.
func relSet(rows [][]string) map[string]bool {
	out := make(map[string]bool, len(rows))
	for _, r := range rows {
		out[strings.Join(r, "\x00")] = true
	}
	return out
}

// TestRoundTripPaperExample: generate SQL for the paper's Example 4 UCQ
// and JUCQ, execute it through the SQL front-end, and compare against
// the engine's native evaluation.
func TestRoundTripPaperExample(t *testing.T) {
	tb := dllite.MustParseTBox(`
PhDStudent <= Researcher
exists worksWith <= Researcher
exists worksWith- <= Researcher
worksWith <= worksWith-
role: supervisedBy <= worksWith
exists supervisedBy <= PhDStudent
`)
	db := testDB(t)
	ref := reformulate.New(tb)
	q := query.MustParseCQ("q(x) <- PhDStudent(x), worksWith(y, x)")
	u := ref.MustReformulate(q)

	native := engine.EvaluateUCQ(u, db, engine.ProfilePostgres())
	sql := sqlgen.UCQ(u, sqlgen.Options{Layout: engine.LayoutSimple})
	rel, err := Exec(sql, db)
	if err != nil {
		t.Fatalf("%v\nsql: %s", err, sql)
	}
	if !sameSets(relSet(rel.Decode(db.Dict)), relSet(native.Tuples)) {
		t.Fatalf("SQL path %v differs from native %v", rel.Decode(db.Dict), native.Tuples)
	}

	// And the JUCQ WITH form.
	c := cover.RootCover(q, tb)
	j, err := c.ReformulateJUCQ(ref)
	if err != nil {
		t.Fatal(err)
	}
	nativeJ := engine.EvaluateJUCQ(j, db, engine.ProfilePostgres())
	sqlJ := sqlgen.JUCQ(j, sqlgen.Options{Layout: engine.LayoutSimple})
	relJ, err := Exec(sqlJ, db)
	if err != nil {
		t.Fatalf("%v\nsql: %s", err, sqlJ)
	}
	if !sameSets(relSet(relJ.Decode(db.Dict)), relSet(nativeJ.Tuples)) {
		t.Fatalf("JUCQ SQL path %v differs from native %v", relJ.Decode(db.Dict), nativeJ.Tuples)
	}
}

func sameSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestRoundTripWorkload is the heavyweight oracle: for every workload
// query and every safe cover strategy shape (UCQ and Croot), the SQL
// text produced by sqlgen executes to exactly the engine's answers.
func TestRoundTripWorkload(t *testing.T) {
	tb := lubm.TBox()
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 5}, db)
	db.Finalize()
	ref := reformulate.New(tb)
	for _, q := range lubm.Queries() {
		u := ref.MustReformulate(q)
		native := engine.EvaluateUCQ(u, db, engine.ProfilePostgres())
		rel, err := Exec(sqlgen.UCQ(u, sqlgen.Options{Layout: engine.LayoutSimple}), db)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !sameSets(relSet(rel.Decode(db.Dict)), relSet(native.Tuples)) {
			t.Errorf("%s: UCQ SQL path differs (%d vs %d tuples)",
				q.Name, len(rel.Rows), len(native.Tuples))
		}
		c := cover.RootCover(q, tb)
		j, err := c.ReformulateJUCQ(ref)
		if err != nil {
			t.Fatal(err)
		}
		nativeJ := engine.EvaluateJUCQ(j, db, engine.ProfilePostgres())
		relJ, err := Exec(sqlgen.JUCQ(j, sqlgen.Options{Layout: engine.LayoutSimple}), db)
		if err != nil {
			t.Fatalf("%s (JUCQ): %v", q.Name, err)
		}
		if !sameSets(relSet(relJ.Decode(db.Dict)), relSet(nativeJ.Tuples)) {
			t.Errorf("%s: JUCQ SQL path differs (%d vs %d tuples)",
				q.Name, len(relJ.Rows), len(nativeJ.Tuples))
		}
	}
}

// TestRoundTripUSCQ: the factorized SQL (inline union subselects) also
// round-trips.
func TestRoundTripUSCQ(t *testing.T) {
	tb := lubm.TBox()
	db := engine.NewDB(engine.LayoutSimple)
	lubm.Generate(lubm.Config{Universities: 1, Seed: 5}, db)
	db.Finalize()
	ref := reformulate.New(tb)
	q := lubm.Queries()[2] // Q3
	u := ref.MustReformulate(q)
	uscq := query.FactorizeUCQ(u)
	native := engine.EvaluateUSCQ(uscq, db, engine.ProfilePostgres())
	sql, err := sqlgen.Render(plan.FromUSCQ(uscq), sqlgen.Options{Layout: engine.LayoutSimple})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Exec(sql, db)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSets(relSet(rel.Decode(db.Dict)), relSet(native.Tuples)) {
		t.Fatalf("USCQ SQL path differs: %d vs %d tuples", len(rel.Rows), len(native.Tuples))
	}
}

package ntriples

import (
	"strings"
	"testing"

	"repro/internal/dllite"
	"repro/internal/lubm"
)

func TestWriteShape(t *testing.T) {
	ab := dllite.MustParseABox(`
PhDStudent(Damian)
supervisedBy(Damian, Ioana)
`)
	out := WriteString(ab, Options{})
	want := []string{
		"<http://example.org/Damian> <" + RDFType + "> <http://example.org/PhDStudent> .",
		"<http://example.org/Damian> <http://example.org/supervisedBy> <http://example.org/Ioana> .",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("missing line %q in:\n%s", w, out)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	ab := dllite.MustParseABox(`
PhDStudent(Damian)
Researcher(Ioana)
supervisedBy(Damian, Ioana)
worksWith(Ioana, Francois)
`)
	back, err := ReadString(WriteString(ab, Options{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != ab.Size() {
		t.Fatalf("round trip lost facts: %d vs %d", back.Size(), ab.Size())
	}
	for i, as := range ab.Assertions {
		if back.Assertions[i] != as {
			t.Errorf("fact %d: %v != %v", i, back.Assertions[i], as)
		}
	}
}

func TestCustomBase(t *testing.T) {
	ab := dllite.MustParseABox("A(x)")
	o := Options{Base: "urn:uni:"}
	out := WriteString(ab, o)
	if !strings.Contains(out, "<urn:uni:x>") {
		t.Errorf("custom base not applied:\n%s", out)
	}
	back, err := ReadString(out, o)
	if err != nil {
		t.Fatal(err)
	}
	if back.Assertions[0] != dllite.ConceptAssertion("A", "x") {
		t.Errorf("round trip = %v", back.Assertions[0])
	}
}

func TestForeignIRIsKeptVerbatim(t *testing.T) {
	in := `<http://other.org/alice> <http://example.org/knows> <http://other.org/bob> .`
	ab, err := ReadString(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	as := ab.Assertions[0]
	if as.S != "http://other.org/alice" || as.Pred != "knows" || as.O != "http://other.org/bob" {
		t.Errorf("parsed = %v", as)
	}
}

func TestCommentsAndBlanksSkipped(t *testing.T) {
	in := "# a comment\n\n<http://example.org/a> <" + RDFType + "> <http://example.org/A> .\n"
	ab, err := ReadString(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ab.Size() != 1 {
		t.Fatalf("size = %d", ab.Size())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		`<a> <b> <c>`,                // missing dot
		`<a> <b> .`,                  // two terms
		`<a> <b> <c> <d> .`,          // four terms
		`<a> <b> "literal" .`,        // literal unsupported
		`<a> <b <c> .`,               // unterminated IRI
		`<> <p> <o> .`,               // empty IRI
		`plain text without angle .`, // not a triple
	} {
		if _, err := ReadString(bad, Options{}); err == nil {
			t.Errorf("ReadString(%q) should fail", bad)
		}
	}
}

func TestLUBMExportImport(t *testing.T) {
	ab := lubm.GenerateABox(lubm.Config{Universities: 1, Seed: 9})
	nt := WriteString(ab, Options{Base: "http://lubm.example.org/"})
	back, err := ReadString(nt, Options{Base: "http://lubm.example.org/"})
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != ab.Size() {
		t.Fatalf("LUBM round trip: %d vs %d facts", back.Size(), ab.Size())
	}
}

// ReadString parses from a string.
func ReadString(s string, o Options) (*dllite.ABox, error) {
	return Read(strings.NewReader(s), o)
}

// WriteString serializes to a string.
func WriteString(ab *dllite.ABox, o Options) string {
	var sb strings.Builder
	_ = Write(&sb, ab, o)
	return sb.String()
}

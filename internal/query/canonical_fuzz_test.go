package query

import "testing"

// canonicalSeeds exercise every branch of the key: tie groups that need
// the permutation pass (two, three and four atoms with equal name-blind
// renderings), a tie group past the permutation cap, repeated head
// variables, constants in the body, unbound variables, duplicate atoms,
// and more atoms than the insertion sort handles. (The parser has no
// boolean queries; the tests strip the heads themselves.)
var canonicalSeeds = []string{
	"q(x) <- A(x)",
	"q(x, y) <- A(x), R(x, z), S(z, y), B(w), R(y, 'c')",
	"q(x) <- R(x, z), R(x, w), S(z, w), S(w, z)",
	"q(x) <- R(a, b), R(b, c), R(c, a), A(x)",
	"q(x) <- R(a, b), R(b, c), R(c, d), R(d, a), S(a, x)",
	"q(x) <- R(a, b), R(b, c), R(c, d), R(d, e), R(e, f), R(f, g), R(g, h), R(h, a), A(x)",
	"q(x, x) <- R(x, y), R(y, x)",
	"q(x, y, x) <- R(x, y), A(y)",
	"q(x) <- R(x, 'a'), R(x, 'b'), R('a', y), S(y, y)",
	"q(z) <- A(x), R(x, y), B(z)",
	"q(x) <- R(x, y), R(x, y), A(x)",
	"q(x) <- A(x), B(x), C(x), D(x), E(x), F(x), G(x), H(x), I(x), J(x), K(x), L(x), M(x), R(x, y), R(y, z)",
}

func TestCanonicalKeyMatchesOldOnSeeds(t *testing.T) {
	for _, s := range canonicalSeeds {
		q := MustParseCQ(s)
		if got, want := CanonicalKey(q), canonicalKeyOld(q); got != want {
			t.Errorf("%s: key %q, old %q", s, got, want)
		}
		q.Head = nil
		if got, want := CanonicalKey(q), canonicalKeyOld(q); got != want {
			t.Errorf("%s, boolean: key %q, old %q", s, got, want)
		}
	}
	if raceEnabled {
		return
	}
	// The common case — no tie group — costs the returned string only.
	q := MustParseCQ(canonicalSeeds[1])
	if n := testing.AllocsPerRun(50, func() { _ = CanonicalKey(q) }); n > 1 {
		t.Errorf("CanonicalKey allocates %v times per call, want 1", n)
	}
	var buf []byte
	seen := map[string]bool{CanonicalKey(q): true}
	if n := testing.AllocsPerRun(50, func() {
		buf = AppendCanonicalKey(buf[:0], q)
		_ = seen[string(buf)]
	}); n > 0 {
		t.Errorf("looking a seen query up allocates %v times, want 0", n)
	}
}

// FuzzCanonicalKey: old and new keys agree on whatever parses.
func FuzzCanonicalKey(f *testing.F) {
	for _, s := range canonicalSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := ParseCQ(text)
		if err != nil {
			t.Skip()
		}
		if got, want := CanonicalKey(q), canonicalKeyOld(q); got != want {
			t.Fatalf("%s: key %q, old %q", text, got, want)
		}
		q.Head = nil
		if got, want := CanonicalKey(q), canonicalKeyOld(q); got != want {
			t.Fatalf("%s, boolean: key %q, old %q", text, got, want)
		}
	})
}

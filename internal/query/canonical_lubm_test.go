package query_test

import (
	"testing"

	"repro/internal/cover"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// TestCanonicalKeyMatchesOldOnLUBM: the buffer-based key equals the
// string-building one it replaced, byte for byte, on every disjunct of
// every LUBM and star query reformulation and of the reformulations of
// their root-cover fragments — the CQs PerfectRef actually keys.
func TestCanonicalKeyMatchesOldOnLUBM(t *testing.T) {
	tb := lubm.TBox()
	ref := reformulate.New(tb)
	n := 0
	check := func(q query.CQ) {
		u, err := ref.Reformulate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range u.Disjuncts {
			n++
			if got, want := query.CanonicalKey(d), query.CanonicalKeyOld(d); got != want {
				t.Fatalf("%s: key %q, old %q", d, got, want)
			}
		}
	}
	for _, q := range append(lubm.Queries(), lubm.StarQueries()...) {
		check(q)
		c := cover.RootCover(q, tb)
		for k := range c.Frags {
			check(c.FragmentQuery(k))
		}
	}
	if n < 2000 {
		t.Errorf("only %d disjuncts compared", n)
	}
}

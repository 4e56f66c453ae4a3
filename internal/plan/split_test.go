package plan

import (
	"reflect"
	"testing"

	"repro/internal/cover"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/reformulate"
)

// TestSplitReducersMatchesOld tables the occurrence-count classification
// against the per-atom-map one it replaced, on every disjunct FromCQ
// lowers for the LUBM and star queries — their full reformulations and
// the reformulations of their root-cover fragments — and on shapes the
// workload lacks: repeated variables inside an atom, constants, head
// variables private to an atom, and a body past the stack buffers.
func TestSplitReducersMatchesOld(t *testing.T) {
	n, reduced := 0, 0
	check := func(q query.CQ) {
		n++
		core, red := splitReducers(q)
		oldCore, oldRed := splitReducersOld(q)
		if !reflect.DeepEqual(core, oldCore) || !reflect.DeepEqual(red, oldRed) {
			t.Fatalf("%s: core %v reducers %v, old %v %v", q, core, red, oldCore, oldRed)
		}
		if len(red) > 0 {
			reduced++
		}
	}
	tb := lubm.TBox()
	ref := reformulate.New(tb)
	reformulated := func(q query.CQ) {
		u, err := ref.Reformulate(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range u.Disjuncts {
			check(d)
		}
	}
	for _, q := range append(lubm.Queries(), lubm.StarQueries()...) {
		reformulated(q)
		c := cover.RootCover(q, tb)
		for k := range c.Frags {
			reformulated(c.FragmentQuery(k))
		}
	}
	for _, s := range []string{
		"q(x) <- A(x)",
		"q(x) <- A(x), R(x, y)",
		"q(x) <- A(x), R(x, y), R(y, y)",
		"q(x) <- R(x, y), S(y, y), T(y, z), T(z, z)",
		"q(x) <- A(x), R(x, 'c'), S(x, w)",
		"q(x, w) <- A(x), S(x, w)",
		"q(x) <- R(x, y), R(x, z)",
		"q(x) <- R(y, z), A(x)",
		"q(x) <- A(x), B(x), C(x), D(x), E(x), F(x), G(x), H(x), I(x), J(x), K(x), L(x), M(x), N(x), O(x), P(x), Q(x), R(x, y), S(x, z)",
	} {
		check(query.MustParseCQ(s))
	}
	if n < 2000 || reduced == 0 {
		t.Errorf("%d disjuncts compared, %d with reducers", n, reduced)
	}
}

package plan

import (
	"testing"

	"repro/internal/query"
)

// access builds a single-atom access leaf for hand-assembled trees.
func access(pos int, pred string, args ...query.Term) *Node {
	return &Node{Op: OpAccess, Atoms: []query.Atom{{Pred: pred, Args: args}}, Pos: pos}
}

func TestValidateAcceptsLowerings(t *testing.T) {
	x, y := query.Var("x"), query.Var("y")
	cq := mustCQ(t, "q(x) <- Prof(x), advisor(x, y)")
	ucq := query.UCQ{Name: "q", Disjuncts: []query.CQ{cq, mustCQ(t, "q(x) <- Student(x)")}}
	scq := query.SCQ{Name: "q", Head: []query.Term{x},
		Blocks: [][]query.Atom{{{Pred: "A", Args: []query.Term{x}}, {Pred: "B", Args: []query.Term{x}}}}}
	jucq := query.JUCQ{Name: "q", Head: []query.Term{x}, Subs: []query.UCQ{
		{Name: "f0", Disjuncts: []query.CQ{mustCQ(t, "f0(x, y) <- advisor(x, y)")}},
		{Name: "f1", Disjuncts: []query.CQ{mustCQ(t, "f1(y) <- Prof(y)")}},
	}}
	juscq := query.JUSCQ{Name: "q", Head: []query.Term{x}, Subs: []query.USCQ{
		{Name: "f0", Disjuncts: []query.SCQ{{Name: "f0", Head: []query.Term{x, y},
			Blocks: [][]query.Atom{{{Pred: "advisor", Args: []query.Term{x, y}}}}}}},
		{Name: "f1", Disjuncts: []query.SCQ{{Name: "f1", Head: []query.Term{y},
			Blocks: [][]query.Atom{{{Pred: "Prof", Args: []query.Term{y}}}}}}},
	}}
	for name, n := range map[string]*Node{
		"cq":    FromCQ(cq),
		"ucq":   FromUCQ(ucq),
		"scq":   FromSCQ(scq),
		"uscq":  FromUSCQ(query.USCQ{Name: "q", Disjuncts: []query.SCQ{scq}}),
		"jucq":  FromJUCQ(jucq),
		"juscq": FromJUSCQ(juscq),
	} {
		if err := Validate(n); err != nil {
			t.Errorf("%s: Validate(%s) = %v, want nil", name, n, err)
		}
		if err := Validate(Rewrite(n)); err != nil {
			t.Errorf("%s: Validate(Rewrite) = %v, want nil", name, err)
		}
	}
}

// TestValidateErrors pins the exact error message of each well-formed-
// ness rule — the messages are part of the diagnostic surface.
func TestValidateErrors(t *testing.T) {
	x, y := query.Var("x"), query.Var("y")
	cases := []struct {
		name string
		n    *Node
		want string
	}{
		{"nil", nil, "plan: validate: nil node"},
		{
			"unbound head variable",
			&Node{Op: OpProject, Head: []query.Term{x}, Inputs: []*Node{access(0, "A", y)}},
			`plan: validate: head variable "x" not bound by any access`,
		},
		{
			// Fragment 0 exposes y; fragment 1 mentions y body-only.
			"join key missing from one side",
			&Node{Op: OpDistinct, Inputs: []*Node{
				{Op: OpProject, Head: []query.Term{x}, Inputs: []*Node{
					{Op: OpJoin, Inputs: []*Node{
						{Op: OpDistinct, Inputs: []*Node{
							{Op: OpProject, Head: []query.Term{x, y}, Inputs: []*Node{access(0, "R", x, y)}},
						}},
						{Op: OpDistinct, Inputs: []*Node{
							{Op: OpProject, Head: []query.Term{x}, Inputs: []*Node{access(1, "S", x, y)}},
						}},
					}},
				}},
			}},
			`plan: validate: join key "y" missing from fragment 1's head`,
		},
		{
			"mismatched union arm schemas",
			&Node{Op: OpDistinct, Inputs: []*Node{
				{Op: OpUnion, Inputs: []*Node{
					{Op: OpProject, Head: []query.Term{x}, Inputs: []*Node{access(0, "A", x)}},
					{Op: OpProject, Head: []query.Term{x, y}, Inputs: []*Node{access(0, "R", x, y)}},
				}},
			}},
			"plan: validate: union arm 1 has arity 2, arm 0 has arity 1",
		},
		{
			"zero-arm union",
			&Node{Op: OpDistinct, Inputs: []*Node{{Op: OpUnion}}},
			"plan: validate: union has no arms",
		},
		{
			"distinct above distinct",
			&Node{Op: OpDistinct, Inputs: []*Node{
				{Op: OpDistinct, Inputs: []*Node{
					{Op: OpProject, Head: []query.Term{x}, Inputs: []*Node{access(0, "A", x)}},
				}},
			}},
			"plan: validate: distinct directly above distinct",
		},
		{
			"single-input join",
			&Node{Op: OpJoin, Inputs: []*Node{access(0, "A", x)}},
			"plan: validate: join has 1 inputs, need at least 2",
		},
		{
			"empty access",
			&Node{Op: OpAccess},
			"plan: validate: access has no atoms",
		},
		{
			"mixed block arguments",
			&Node{Op: OpAccess, Atoms: []query.Atom{
				{Pred: "A", Args: []query.Term{x}},
				{Pred: "B", Args: []query.Term{y}},
			}},
			"plan: validate: access block alternatives bind different arguments: A(x) vs B(y)",
		},
		{
			"disconnected semijoin reducer",
			&Node{Op: OpProject, Head: []query.Term{x}, Inputs: []*Node{
				{Op: OpSemiJoin, Inputs: []*Node{access(0, "A", x), access(1, "B", y)}},
			}},
			"plan: validate: semijoin reducer 0 shares no variable with the core",
		},
		{
			"union arm not a projection",
			&Node{Op: OpDistinct, Inputs: []*Node{
				{Op: OpUnion, Inputs: []*Node{access(0, "A", x)}},
			}},
			"plan: validate: union arm 0 is access, want project",
		},
		{
			// Every backend and both estimators take a fragment apart
			// as a union of arms; a cover in its place is rejected here.
			"cover nested as a cover fragment",
			Cover("j", []query.Term{x}, []*Node{
				FromJUCQ(query.JUCQ{Name: "i", Head: []query.Term{x}, Subs: []query.UCQ{
					{Name: "f0", Disjuncts: []query.CQ{mustCQ(t, "f0(x) <- A(x)")}},
					{Name: "f1", Disjuncts: []query.CQ{mustCQ(t, "f1(x) <- advisor(x, y)")}},
				}}),
				FromUCQ(query.UCQ{Name: "f2", Disjuncts: []query.CQ{mustCQ(t, "f2(x) <- B(x)")}}),
			}),
			"plan: validate: cover fragment is itself a cover",
		},
		{
			"exchange without input",
			&Node{Op: OpExchange, Key: "x"},
			"plan: validate: exchange must have exactly one input, has 0",
		},
		{
			"exchange without key",
			&Node{Op: OpExchange, Inputs: []*Node{
				{Op: OpProject, Head: []query.Term{x}, Inputs: []*Node{access(0, "A", x)}},
			}},
			"plan: validate: exchange has no repartition key",
		},
		{
			"exchange key not in input schema",
			&Node{Op: OpExchange, Key: "z", Inputs: []*Node{
				{Op: OpDistinct, Inputs: []*Node{
					{Op: OpProject, Head: []query.Term{x, y}, Inputs: []*Node{access(0, "R", x, y)}},
				}},
			}},
			`plan: validate: exchange key "z" not in its input's output schema`,
		},
	}
	for _, tc := range cases {
		err := Validate(tc.n)
		if err == nil {
			t.Errorf("%s: Validate = nil, want %q", tc.name, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: Validate = %q, want %q", tc.name, err.Error(), tc.want)
		}
	}
}

// TestValidateAcceptsExchangeWrappedCover: the shard backend's shuffle
// IR — a cover join with a fragment under an Exchange on the join key —
// is well-formed; the exchange is transparent to the cover-join check.
func TestValidateAcceptsExchangeWrappedCover(t *testing.T) {
	x, y := query.Var("x"), query.Var("y")
	frag0 := &Node{Op: OpDistinct, Inputs: []*Node{
		{Op: OpProject, Head: []query.Term{x, y}, Inputs: []*Node{access(0, "worksFor", x, y)}},
	}}
	frag1 := &Node{Op: OpDistinct, Inputs: []*Node{
		{Op: OpProject, Head: []query.Term{y}, Inputs: []*Node{access(0, "Company", y)}},
	}}
	n := &Node{Op: OpDistinct, Inputs: []*Node{
		{Op: OpProject, Head: []query.Term{x, y}, Inputs: []*Node{
			{Op: OpJoin, Inputs: []*Node{
				{Op: OpExchange, Key: "y", Inputs: []*Node{frag0}},
				frag1,
			}},
		}},
	}}
	if err := Validate(n); err != nil {
		t.Fatalf("Validate = %v", err)
	}
}

// TestValidateCatchesCorruptedRewrite plays the buggy-rewrite-rule
// scenario end to end at the IR level: a "rewrite" that clones the
// tree but drops a variable from a fragment's projected head produces
// a plan Validate rejects — the failure mode is a loud plan-time
// error, not a silent fragment cross product.
func TestValidateCatchesCorruptedRewrite(t *testing.T) {
	jucq := query.JUCQ{Name: "q", Head: []query.Term{query.Var("x")}, Subs: []query.UCQ{
		{Name: "f0", Disjuncts: []query.CQ{mustCQ(t, "f0(x, y) <- advisor(x, y)")}},
		{Name: "f1", Disjuncts: []query.CQ{mustCQ(t, "f1(y) <- Prof(y)")}},
	}}
	good := Rewrite(FromJUCQ(jucq))
	if err := Validate(good); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
	bad := dropFragmentHeadVar(good, "y")
	if bad == good {
		t.Fatal("corrupting rewrite did not change the tree")
	}
	err := Validate(bad)
	if err == nil {
		t.Fatalf("Validate accepted the corrupted tree %s", bad)
	}
	want := `plan: validate: join key "y" missing from fragment 0's head`
	if err.Error() != want {
		t.Fatalf("Validate = %q, want %q", err.Error(), want)
	}
}

// dropFragmentHeadVar is the deliberately broken rewrite: copy-on-write
// like the real pass, but it truncates the first projected head that
// names v — the kind of bug Validate exists to catch.
func dropFragmentHeadVar(n *Node, v string) *Node {
	for i, t := range n.Head {
		if n.Op == OpProject && t.IsVar() && t.Name == v {
			m := *n
			m.Head = append(append([]query.Term(nil), n.Head[:i]...), n.Head[i+1:]...)
			return &m
		}
	}
	for i, in := range n.Inputs {
		if r := dropFragmentHeadVar(in, v); r != in {
			m := *n
			m.Inputs = append([]*Node(nil), n.Inputs...)
			m.Inputs[i] = r
			return &m
		}
	}
	return n
}

// TestCheckerSharesFragments: a Checker validates trees built over shared
// fragment subtrees exactly as Validate does, walking each fragment once
// — a violation inside a fragment is reported at first sight, and the
// cover-level key invariant is enforced on later trees from what the
// Checker remembers of the fragments it has already accepted.
func TestCheckerSharesFragments(t *testing.T) {
	x := query.Var("x")
	frag := func(text string) *Node {
		q := mustCQ(t, text)
		return Rewrite(FromUCQ(query.UCQ{Name: q.Name, Disjuncts: []query.CQ{q}}))
	}
	f0 := frag("f0(x, y) <- advisor(x, y)")
	f1 := frag("f1(y) <- Prof(y)")
	f2 := frag("f2(x) <- Student(x)")
	hidesY := frag("f3(x) <- takes(x, y)") // y is a join key f0 exposes
	unbound := &Node{Op: OpDistinct, Inputs: []*Node{{Op: OpProject, Head: []query.Term{x, query.Var("w")},
		Inputs: []*Node{access(0, "Student", x)}}}}

	var c Checker
	for _, tc := range []struct {
		name  string
		frags []*Node
		known int // fragments the Checker remembers afterwards
	}{
		{"two fragments", []*Node{f0, f1}, 2},
		{"one shared, one new", []*Node{f0, f2}, 3},
		{"all shared", []*Node{f1, f0, f2}, 3},
		{"hidden join key against a remembered fragment", []*Node{f0, hidesY}, 4},
		{"violation inside a new fragment", []*Node{f0, unbound}, 4},
	} {
		n := Cover("q", []query.Term{x}, tc.frags)
		got, want := c.Validate(n), Validate(n)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("%s: Checker says %v, Validate says %v", tc.name, got, want)
		}
		if len(c.frags) != tc.known {
			t.Errorf("%s: Checker remembers %d fragments, want %d", tc.name, len(c.frags), tc.known)
		}
	}
	if err := c.Validate(Cover("q", []query.Term{x}, []*Node{f0, hidesY})); err == nil {
		t.Error("a remembered fragment pair must still fail the join-key check")
	}
}

// TestCoverFragments: the cover shape comes apart into its fragment
// subtrees (Exchange wrappers stepped over); nothing else does.
func TestCoverFragments(t *testing.T) {
	x := query.Var("x")
	f0 := FromUCQ(query.UCQ{Name: "f0", Disjuncts: []query.CQ{mustCQ(t, "f0(x) <- Prof(x)")}})
	f1 := FromUCQ(query.UCQ{Name: "f1", Disjuncts: []query.CQ{mustCQ(t, "f1(x) <- Student(x)")}})
	if got := CoverFragments(Cover("q", []query.Term{x}, []*Node{f0, f1})); len(got) != 2 || got[0] != f0 || got[1] != f1 {
		t.Errorf("fragments = %v", got)
	}
	wrapped := &Node{Op: OpExchange, Key: "x", Inputs: []*Node{f1}}
	if got := CoverFragments(Cover("q", []query.Term{x}, []*Node{f0, wrapped})); len(got) != 2 || got[0] != f0 || got[1] != f1 {
		t.Errorf("fragments behind an exchange = %v", got)
	}
	if Cover("q", []query.Term{x}, []*Node{f0}) != f0 {
		t.Error("a single fragment is its own plan")
	}
	for name, n := range map[string]*Node{"ucq": f0, "rewritten ucq": Rewrite(f0), "cq": FromCQ(mustCQ(t, "q(x) <- Prof(x)")), "nil": nil} {
		if got := CoverFragments(n); got != nil {
			t.Errorf("%s: fragments = %v, want none", name, got)
		}
	}
}

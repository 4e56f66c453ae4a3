package plan

// Static well-formedness checking for the IR. Every backend compiles
// the same logical tree, so a malformed plan — a buggy lowering, a
// rewrite rule that dropped a head variable, a cover fragment that
// hides a join key — would otherwise surface as silently wrong rows
// (the native projectOp, for one, drops every row whose head variable
// the pipeline never bound). Validate makes those plans fail loudly at
// plan time instead: core.Answerer runs it after Rewrite, and each
// backend runs it again at the top of Compile, so trees handed to a
// backend directly (bypassing core) are covered too.

import (
	"fmt"
	"slices"

	"repro/internal/query"
)

// Validate checks the structural invariants of a plan tree:
//
//   - Access nodes are leaves with at least one atom; the alternatives
//     of a factorized block bind identical argument lists (FactorizeUCQ
//     only merges disjuncts differing in predicate names).
//   - Join has at least two inputs. A cover join (every input a
//     Distinct-rooted fragment) joins fragments on identically named
//     output columns, so a variable one fragment exposes in its head
//     must not occur body-only in another — the join key would be
//     invisible to the hash join. A fragment is a union of arms, never
//     a cover itself.
//   - SemiJoin has a core plus at least one reducer, and every reducer
//     shares a variable with the core (a disconnected reducer cannot
//     restrict anything).
//   - Union has at least one arm; arms are projections of equal
//     arity.
//   - Distinct has exactly one input and never sits directly above
//     another Distinct.
//   - Project has exactly one input, and every head variable is bound
//     by some access below it.
//   - Exchange has exactly one input, a non-empty repartition key, and
//     the key is a column of its input's output schema (a row can only
//     route on a value it carries).
//
// Errors are prefixed "plan: validate: " and name the first violation
// found in a deterministic (pre-order, input-order) walk.
func Validate(n *Node) error {
	return new(Checker).Validate(n)
}

// Checker is Validate for trees that share subtrees: the candidate
// covers of one search are built over one set of fragment subtrees, and
// a move changes at most two of them. A Checker walks each cover
// fragment (an input of a cover join, identified by pointer — nodes are
// immutable) once, remembers the variables it mentions, and checks
// every later tree containing it from that record: per tree it redoes
// only the cover-level checks. The zero value is ready to use; a
// Checker is not safe for concurrent use and holds its fragments alive,
// so it should not outlive the search.
type Checker struct {
	frags map[*Node]fragVars // the cover fragments validated so far
}

// fragVars is what the cover-level checks need from a fragment: the
// variables its head exposes, and every variable it mentions, each
// listed once. A fragment has few distinct variables however many arms
// it has, so a list is cheaper to fill and search than a set.
type fragVars struct {
	head, all []string
}

// Validate checks n exactly as the package-level Validate does.
func (c *Checker) Validate(n *Node) error {
	if n == nil {
		return fmt.Errorf("plan: validate: nil node")
	}
	return c.node(n)
}

// fragment validates one cover-join input, or recalls that it did, and
// returns its variables.
func (c *Checker) fragment(in *Node) (fragVars, error) {
	if vars, ok := c.frags[in]; ok {
		return vars, nil
	}
	if CoverFragments(unwrapExchange(in)) != nil {
		return fragVars{}, fmt.Errorf("plan: validate: cover fragment is itself a cover")
	}
	if err := c.node(in); err != nil {
		return fragVars{}, err
	}
	vars := fragVars{head: outVars(in), all: collectVars(nil, in)}
	if c.frags == nil {
		c.frags = make(map[*Node]fragVars)
	}
	c.frags[in] = vars
	return vars, nil
}

func (c *Checker) node(n *Node) error {
	for _, in := range n.Inputs {
		if in == nil {
			return fmt.Errorf("plan: validate: %s has a nil input", n.Op)
		}
	}
	switch n.Op {
	case OpAccess:
		if len(n.Inputs) != 0 {
			return fmt.Errorf("plan: validate: access must be a leaf, has %d inputs", len(n.Inputs))
		}
		if len(n.Atoms) == 0 {
			return fmt.Errorf("plan: validate: access has no atoms")
		}
		for _, a := range n.Atoms {
			if len(a.Args) < 1 || len(a.Args) > 2 {
				return fmt.Errorf("plan: validate: atom %s has arity %d", a.String(), len(a.Args))
			}
		}
		for _, a := range n.Atoms[1:] {
			if !sameArgs(n.Atoms[0].Args, a.Args) {
				return fmt.Errorf("plan: validate: access block alternatives bind different arguments: %s vs %s",
					n.Atoms[0].String(), a.String())
			}
		}
	case OpJoin:
		if len(n.Inputs) < 2 {
			return fmt.Errorf("plan: validate: join has %d inputs, need at least 2", len(n.Inputs))
		}
	case OpSemiJoin:
		if len(n.Inputs) < 2 {
			return fmt.Errorf("plan: validate: semijoin has %d inputs, need a core and at least one reducer", len(n.Inputs))
		}
	case OpUnion:
		if len(n.Inputs) == 0 {
			return fmt.Errorf("plan: validate: union has no arms")
		}
	case OpDistinct:
		if len(n.Inputs) != 1 {
			return fmt.Errorf("plan: validate: distinct must have exactly one input, has %d", len(n.Inputs))
		}
		if n.Inputs[0].Op == OpDistinct {
			return fmt.Errorf("plan: validate: distinct directly above distinct")
		}
	case OpProject:
		if len(n.Inputs) != 1 {
			return fmt.Errorf("plan: validate: project must have exactly one input, has %d", len(n.Inputs))
		}
	case OpExchange:
		if len(n.Inputs) != 1 {
			return fmt.Errorf("plan: validate: exchange must have exactly one input, has %d", len(n.Inputs))
		}
		if n.Key == "" {
			return fmt.Errorf("plan: validate: exchange has no repartition key")
		}
	default:
		return fmt.Errorf("plan: validate: unknown operator %s", n.Op)
	}
	if n.Op == OpJoin && isCoverJoin(n) {
		return c.coverJoin(n)
	}
	for _, in := range n.Inputs {
		if err := c.node(in); err != nil {
			return err
		}
	}
	// Cross-input checks run after the inputs validated individually, so
	// their own structure (arm shapes, head bindings) can be relied on.
	switch n.Op {
	case OpSemiJoin:
		core := n.Inputs[0]
		for i, red := range n.Inputs[1:] {
			if eachOutVar(red, func(v string) bool { return !exposes(core, v) }) {
				return fmt.Errorf("plan: validate: semijoin reducer %d shares no variable with the core", i)
			}
		}
	case OpUnion:
		var arity0 int
		for i, arm := range n.Inputs {
			if arm.Op != OpProject {
				return fmt.Errorf("plan: validate: union arm %d is %s, want project", i, arm.Op)
			}
			if i == 0 {
				arity0 = len(arm.Head)
				continue
			}
			if len(arm.Head) != arity0 {
				return fmt.Errorf("plan: validate: union arm %d has arity %d, arm 0 has arity %d",
					i, len(arm.Head), arity0)
			}
		}
	case OpExchange:
		if !exposes(n.Inputs[0], n.Key) {
			return fmt.Errorf("plan: validate: exchange key %q not in its input's output schema", n.Key)
		}
	case OpProject:
		for _, t := range n.Head {
			if t.IsVar() && !exposes(n.Inputs[0], t.Name) {
				return fmt.Errorf("plan: validate: head variable %q not bound by any access", t.Name)
			}
		}
	}
	return nil
}

// isCoverJoin reports whether every input of the join is a
// Distinct-rooted fragment, possibly behind an Exchange (the JUCQ/JUSCQ
// cover shape) — as opposed to an ordinary body join of accesses.
func isCoverJoin(n *Node) bool {
	for _, in := range n.Inputs {
		if unwrapExchange(in).Op != OpDistinct {
			return false
		}
	}
	return true
}

// coverJoin validates the fragments of a cover join, each at most once
// per Checker, then enforces the fragment-join key invariant. Fragments
// join as relations on identically named columns — their projected
// heads — so a variable that one fragment exposes must appear in the
// head of every fragment mentioning it (align.go states the same
// invariant for shard alignment). A body-only occurrence would make the
// evaluation silently degrade to a cross product on that variable.
func (c *Checker) coverJoin(n *Node) error {
	frags := make([]fragVars, len(n.Inputs))
	for i, in := range n.Inputs {
		vars, err := c.fragment(in)
		if err != nil {
			return err
		}
		frags[i] = vars
	}
	for i, f := range frags {
		for _, v := range f.head {
			for k, other := range frags {
				if k != i && slices.Contains(other.all, v) && !slices.Contains(other.head, v) {
					return fmt.Errorf("plan: validate: join key %q missing from fragment %d's head", v, k)
				}
			}
		}
	}
	return nil
}

// outVars lists the variables of n's output schema: what the subtree
// exposes to the operator above it.
func outVars(n *Node) []string {
	var out []string
	eachOutVar(n, func(v string) bool {
		out = addVar(out, v)
		return true
	})
	return out
}

// exposes reports whether v is a variable of n's output schema, without
// listing them: the per-arm checks run once per arm of every fragment.
func exposes(n *Node, v string) bool {
	return !eachOutVar(n, func(w string) bool { return w != v })
}

// eachOutVar calls f on each variable of n's output schema, repeats
// included, until f returns false; it reports whether f never did.
func eachOutVar(n *Node, f func(string) bool) bool {
	switch n.Op {
	case OpAccess:
		for _, a := range n.Atoms {
			for _, t := range a.Args {
				if t.IsVar() && !f(t.Name) {
					return false
				}
			}
		}
	case OpJoin:
		for _, in := range n.Inputs {
			if !eachOutVar(in, f) {
				return false
			}
		}
	case OpSemiJoin, OpUnion:
		// Reducers only restrict: a semijoin's schema is its core's.
		// Union arms are schema-compatible projections: the first arm's
		// head names the union's columns.
		if len(n.Inputs) > 0 {
			return eachOutVar(n.Inputs[0], f)
		}
	case OpDistinct, OpExchange:
		if len(n.Inputs) == 1 {
			return eachOutVar(n.Inputs[0], f)
		}
	case OpProject:
		for _, t := range n.Head {
			if t.IsVar() && !f(t.Name) {
				return false
			}
		}
	}
	return true
}

// collectVars adds to vars every variable mentioned anywhere in the
// subtree that it does not list yet.
func collectVars(vars []string, n *Node) []string {
	for _, a := range n.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				vars = addVar(vars, t.Name)
			}
		}
	}
	for _, t := range n.Head {
		if t.IsVar() {
			vars = addVar(vars, t.Name)
		}
	}
	for _, in := range n.Inputs {
		vars = collectVars(vars, in)
	}
	return vars
}

// addVar appends v to vars unless it is listed already.
func addVar(vars []string, v string) []string {
	if slices.Contains(vars, v) {
		return vars
	}
	return append(vars, v)
}

func sameArgs(a, b []query.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

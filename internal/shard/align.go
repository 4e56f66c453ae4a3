package shard

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// Alignment analysis: which relations of a plan can be evaluated
// shard-local, and which must be read in full on every shard.
//
// The partitioning splits every relation on its first column, so a
// plan evaluates correctly shard-by-shard when there is one partition
// variable v such that every occurrence of every "partitioned"
// relation binds v in its first argument: all rows contributing to a
// match with v = a then live in shard hash(a), and the union of the
// per-shard results is exactly the full result (the merge distinct
// removes the duplicates broadcast relations can produce). Relations
// that cannot be aligned stay broadcast — each shard reads their full
// base table, which only ever adds rows a shard could miss, never
// drops one.
//
// Across cover fragments the analysis must also make sure the
// fragment hash-join equates v: if v is mentioned by more than one
// fragment, it must appear in the head of each of them, otherwise two
// fragments could match different v values inside one shard.

// occurrence is one use of a relation in the plan.
type occurrence struct {
	pred  string
	first query.Term
}

// fragment summarizes one joined subquery for the cross-fragment
// alignment condition.
type fragment struct {
	vars map[string]bool // every variable mentioned anywhere in the fragment
	head map[string]bool // the fragment's head variables
	occs []occurrence    // this fragment's atom occurrences
}

// analysis is the partitioning decision for one plan.
type analysis struct {
	// partVar is the chosen partition variable; empty when nothing
	// aligns and the plan falls back to one full (unsharded) evaluation.
	partVar string
	// partitioned names the relations evaluated shard-local.
	partitioned map[string]bool
	// broadcast names the relations the plan touches but reads in full
	// on every shard (sorted; diagnostics only).
	broadcast []string
}

func (a analysis) aligned() bool { return a.partVar != "" }

// describe renders the decision for EXPLAIN output.
func (a analysis) describe(n int) string {
	if !a.aligned() {
		return fmt.Sprintf("%d shards, no co-partitioned alignment: single full evaluation", n)
	}
	parts := make([]string, 0, len(a.partitioned))
	for name := range a.partitioned {
		parts = append(parts, name)
	}
	sort.Strings(parts)
	s := fmt.Sprintf("%d shards on %s: local %s", n, a.partVar, strings.Join(parts, ","))
	if len(a.broadcast) > 0 {
		s += " / broadcast " + strings.Join(a.broadcast, ",")
	}
	return s
}

// relSetKey canonicalizes a partitioned-relation set (view cache key).
func relSetKey(rels map[string]bool) string {
	parts := make([]string, 0, len(rels))
	for name := range rels {
		parts = append(parts, name)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\x00")
}

// collect gathers every atom occurrence of the plan and one fragment
// summary per joined fragment (a plan that is no cover is one fragment;
// the cross-fragment condition is then vacuous). A fragment's head is
// its first arm's.
func collect(n *plan.Node) (occs []occurrence, frags []fragment, err error) {
	subs := plan.CoverFragments(n)
	if subs == nil {
		subs = []*plan.Node{n}
	}
	for _, sub := range subs {
		arms, err := plan.Arms(sub)
		if err != nil {
			return nil, nil, err
		}
		f := fragment{vars: map[string]bool{}, head: map[string]bool{}}
		if len(arms) > 0 {
			for _, t := range arms[0].Head {
				if t.IsVar() {
					f.head[t.Name] = true
					f.vars[t.Name] = true
				}
			}
		}
		for _, arm := range arms {
			leaves, err := plan.ArmLeaves(arm)
			if err != nil {
				return nil, nil, err
			}
			for _, acc := range leaves {
				for _, a := range acc.Atoms {
					if len(a.Args) > 0 {
						o := occurrence{a.Pred, a.Args[0]}
						occs = append(occs, o)
						f.occs = append(f.occs, o)
					}
					for _, t := range a.Args {
						if t.IsVar() {
							f.vars[t.Name] = true
						}
					}
				}
			}
		}
		frags = append(frags, f)
	}
	return occs, frags, nil
}

// analyze picks the partition variable and relation split for one plan
// (an error when the plan is neither a cover nor a fragment). Among the
// valid candidates it prefers the one whose shard-local relations carry
// the most rows (statistics from the base database), so the biggest
// scans are the ones that shrink N-fold;
// ties break on relation count, then variable name, keeping the choice
// deterministic.
func analyze(n *plan.Node, st *engine.Statistics) (analysis, error) {
	occs, frags, err := collect(n)
	if err != nil || len(occs) == 0 {
		return analysis{}, err
	}
	// Candidate partition variables: anything bound in first position.
	candidates := map[string]bool{}
	for _, o := range occs {
		if o.first.IsVar() {
			candidates[o.first.Name] = true
		}
	}
	// Cross-fragment condition: a variable mentioned by several joined
	// fragments is only equated across them when each lists it in its
	// head.
	for v := range candidates {
		mentions := 0
		headAll := true
		for _, f := range frags {
			if f.vars[v] {
				mentions++
				if !f.head[v] {
					headAll = false
				}
			}
		}
		if mentions > 1 && !headAll {
			delete(candidates, v)
		}
	}
	best := analysis{}
	bestWeight, bestCount := -1.0, -1
	var names []string
	for v := range candidates {
		names = append(names, v)
	}
	sort.Strings(names)
	for _, v := range names {
		// A relation is shard-local under v only when every one of its
		// occurrences binds v first (a constant or another variable in
		// first position forces broadcast: its rows may live in a
		// different shard than the match).
		misaligned := map[string]bool{}
		for _, o := range occs {
			if !(o.first.IsVar() && o.first.Name == v) {
				misaligned[o.pred] = true
			}
		}
		part := map[string]bool{}
		weight := 0.0
		for _, o := range occs {
			if o.first.IsVar() && o.first.Name == v && !misaligned[o.pred] && !part[o.pred] {
				part[o.pred] = true
				weight += float64(st.CardConcept(o.pred) + st.CardRole(o.pred))
			}
		}
		if len(part) == 0 {
			continue
		}
		if weight > bestWeight || (weight == bestWeight && len(part) > bestCount) {
			bestWeight, bestCount = weight, len(part)
			best = analysis{partVar: v, partitioned: part}
		}
	}
	if !best.aligned() {
		return best, nil
	}
	seen := map[string]bool{}
	for _, o := range occs {
		if !best.partitioned[o.pred] && !seen[o.pred] {
			seen[o.pred] = true
			best.broadcast = append(best.broadcast, o.pred)
		}
	}
	sort.Strings(best.broadcast)
	return best, nil
}

// Exchange analysis: when the co-partitioned analysis above would
// broadcast a fragment's relations (the join key is bound, but not in
// first position everywhere), a shuffle exchange can still keep the
// cover join shard-local. Each fragment is evaluated partitioned on
// whatever variable its own scans align on, and its result rows are
// hash-repartitioned on the join key so that shard i receives exactly
// the rows with ShardOf(key) = i. Fragments already partitioned on the
// key stay put; fragments with no usable alignment (or not mentioning
// the key) are evaluated once and replayed at every shard.

// fragMode classifies how one fragment participates in an exchange
// plan.
type fragMode int

const (
	// fragLocal: the fragment's scans align on the exchange key — its
	// rows are already at the owning shard.
	fragLocal fragMode = iota
	// fragShuffle: the fragment partitions on its own scan variable
	// and its result stream is repartitioned on the key.
	fragShuffle
	// fragBroadcast: no alignment; evaluated once on the base database
	// and replayed at every shard.
	fragBroadcast
)

// fragPlan is the per-fragment decision of an exchange analysis.
type fragPlan struct {
	mode fragMode
	// scanVar is the variable the fragment's own scans partition on
	// (the key for fragLocal, the fragment's best-aligned variable for
	// fragShuffle, empty for fragBroadcast).
	scanVar string
	// partitioned names the relations read shard-local within the
	// fragment; the rest of the fragment's relations are read in full
	// on every shard.
	partitioned map[string]bool
}

// exchange is the repartitioning decision for one cover plan.
type exchange struct {
	key   string
	frags []fragPlan
}

// describe renders the decision for EXPLAIN output.
func (e *exchange) describe(n int) string {
	var local, shuffle, bcast []string
	for j, fp := range e.frags {
		rels := make([]string, 0, len(fp.partitioned))
		for r := range fp.partitioned {
			rels = append(rels, r)
		}
		sort.Strings(rels)
		switch fp.mode {
		case fragLocal:
			local = append(local, rels...)
		case fragShuffle:
			shuffle = append(shuffle, fmt.Sprintf("%s@%s", strings.Join(rels, "+"), fp.scanVar))
		case fragBroadcast:
			bcast = append(bcast, fmt.Sprintf("frag%d", j))
		}
	}
	s := fmt.Sprintf("%d shards exchange on %s: shuffle %s", n, e.key, strings.Join(shuffle, ","))
	if len(local) > 0 {
		sort.Strings(local)
		s += " / local " + strings.Join(local, ",")
	}
	if len(bcast) > 0 {
		s += " / broadcast " + strings.Join(bcast, ",")
	}
	return s
}

// analyzeExchange picks a repartitioning plan for a cover query, or
// nil when none applies. Candidate keys are head variables shared by
// at least two fragments and exposed in the head of every fragment
// mentioning them (the cover-join invariant — anything else cannot be
// a join key at all). A plan is valid when at least one fragment
// genuinely needs the shuffle (all-local is the co-partitioned case,
// handled without an exchange); among valid keys the analysis prefers
// fewer broadcast fragments, then more shard-local rows, then the
// lexicographically first variable — deterministic like analyze. A
// plan collect rejects has no exchange.
func analyzeExchange(n *plan.Node, st *engine.Statistics, nsh int) *exchange {
	if nsh < 2 {
		return nil
	}
	_, frags, err := collect(n)
	if err != nil || len(frags) < 2 {
		return nil
	}
	shared := map[string]int{}
	for _, f := range frags {
		for v := range f.head {
			shared[v]++
		}
	}
	var names []string
	for v, c := range shared {
		if c < 2 {
			continue
		}
		ok := true
		for _, f := range frags {
			if f.vars[v] && !f.head[v] {
				ok = false
				break
			}
		}
		if ok {
			names = append(names, v)
		}
	}
	sort.Strings(names)
	var best *exchange
	bestBcast, bestWeight := 0, 0.0
	for _, v := range names {
		plans := make([]fragPlan, len(frags))
		shuffles, bcasts := 0, 0
		weight := 0.0
		for j, f := range frags {
			plans[j] = classifyFrag(f, v, st)
			switch plans[j].mode {
			case fragShuffle:
				shuffles++
			case fragBroadcast:
				bcasts++
			}
			for r := range plans[j].partitioned {
				weight += float64(st.CardConcept(r) + st.CardRole(r))
			}
		}
		if shuffles == 0 {
			continue
		}
		if best == nil || bcasts < bestBcast || (bcasts == bestBcast && weight > bestWeight) {
			best = &exchange{key: v, frags: plans}
			bestBcast, bestWeight = bcasts, weight
		}
	}
	return best
}

// classifyFrag decides how one fragment participates under a given
// key. A fragment that does not expose the key in its head cannot be
// routed on it and broadcasts. Otherwise: shard-local if any of its
// relations align on the key within the fragment; shuffled if some
// other variable aligns its scans (rows are then produced exactly once
// across shards and carry the key to route on); broadcast as the last
// resort.
func classifyFrag(f fragment, key string, st *engine.Statistics) fragPlan {
	if !f.vars[key] || !f.head[key] {
		return fragPlan{mode: fragBroadcast}
	}
	if rels := alignedRels(f, key); len(rels) > 0 {
		return fragPlan{mode: fragLocal, scanVar: key, partitioned: rels}
	}
	var bestVar string
	var bestRels map[string]bool
	bestWeight := -1.0
	var vars []string
	for v := range f.vars {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, w := range vars {
		if w == key {
			continue
		}
		rels := alignedRels(f, w)
		if len(rels) == 0 {
			continue
		}
		weight := 0.0
		for r := range rels {
			weight += float64(st.CardConcept(r) + st.CardRole(r))
		}
		if weight > bestWeight {
			bestVar, bestRels, bestWeight = w, rels, weight
		}
	}
	if bestVar == "" {
		return fragPlan{mode: fragBroadcast}
	}
	return fragPlan{mode: fragShuffle, scanVar: bestVar, partitioned: bestRels}
}

// alignedRels returns the fragment's relations whose every occurrence
// within the fragment binds w in first position.
func alignedRels(f fragment, w string) map[string]bool {
	mis := map[string]bool{}
	for _, o := range f.occs {
		if !(o.first.IsVar() && o.first.Name == w) {
			mis[o.pred] = true
		}
	}
	out := map[string]bool{}
	for _, o := range f.occs {
		if !mis[o.pred] {
			out[o.pred] = true
		}
	}
	return out
}

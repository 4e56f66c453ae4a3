// Package sqlgen renders a plan tree as the SQL text shipped to the
// RDBMS, for the two physical layouts of Section 6.1: one statement per
// cover, one WITH clause per fragment, one SELECT per union arm (the
// shape of Section 3). The generated text is what the paper's
// statement-size measurements are about: simple-layout SQL grows
// linearly with the number of union arms, while RDF-layout SQL
// additionally multiplies every atom by a CASE over the hashed
// predicate columns — the combination that drives DB2 past its
// statement-length limit on Q9/Q10 (Section 6.3).
package sqlgen

import (
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/query"
)

// Options control SQL rendering.
type Options struct {
	Layout engine.Layout
	// Slots is the number of hashed predicate columns rendered per atom
	// on the RDF layout; defaults to engine.DefaultRDFSlots.
	Slots int
	// Pretty inserts newlines/indentation (diagnostics); benchmarks use
	// the compact form, matching how drivers ship statements.
	Pretty bool
}

func (o Options) slots() int {
	if o.Slots > 0 {
		return o.Slots
	}
	return engine.DefaultRDFSlots
}

func (o Options) sep() string {
	if o.Pretty {
		return "\n"
	}
	return " "
}

// sanitize maps predicate names to SQL identifiers.
func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Render renders a validated plan tree — a cover, or a single fragment
// — as one statement:
//
//	WITH f1 AS (...), ..., fn AS (...)
//	SELECT DISTINCT x̄ FROM f1, ..., fn WHERE cond(1..n)
//
// A single fragment is f1 alone, selected under its own head. A tree of
// any other shape is an error.
func Render(n *plan.Node, o Options) (string, error) {
	frags := plan.CoverFragments(n)
	cover := frags != nil
	if !cover {
		frags = []*plan.Node{n}
	}
	var b strings.Builder
	sep := o.sep()
	b.WriteString("WITH ")
	fragHeads := make([][]query.Term, len(frags))
	for i, f := range frags {
		if i > 0 {
			b.WriteString(", ")
			b.WriteString(sep)
		}
		fmt.Fprintf(&b, "f%d AS (", i+1)
		h, err := writeUnion(&b, f, o)
		if err != nil {
			return "", err
		}
		fragHeads[i] = h
		b.WriteString(")")
	}
	head := fragHeads[0]
	if cover {
		head = n.Inputs[0].Head
	}
	b.WriteString(sep)
	writeJoinTail(&b, head, fragHeads, o)
	return b.String(), nil
}

// UCQ renders a union of CQs: the body of one WITH clause. UCQ, JUCQ
// and JUSCQ render through the plan tree of their lowering; one Render
// rejects (a disjunct without atoms) renders as the empty string.
func UCQ(u query.UCQ, o Options) string {
	var b strings.Builder
	if _, err := writeUnion(&b, plan.FromUCQ(u), o); err != nil {
		return ""
	}
	return b.String()
}

// JUCQ renders a cover reformulation through its plan tree.
func JUCQ(j query.JUCQ, o Options) string {
	s, _ := Render(plan.FromJUCQ(j), o)
	return s
}

// JUSCQ renders a factorized cover reformulation through its plan tree.
func JUSCQ(j query.JUSCQ, o Options) string {
	s, _ := Render(plan.FromJUSCQ(j), o)
	return s
}

// writeUnion writes one fragment — its arms as SELECTs separated by
// UNION — and returns the fragment's head, its first arm's.
func writeUnion(b *strings.Builder, frag *plan.Node, o Options) ([]query.Term, error) {
	arms, err := plan.Arms(frag)
	if err != nil {
		return nil, err
	}
	for i, arm := range arms {
		if i > 0 {
			b.WriteString(o.sep())
			b.WriteString("UNION")
			b.WriteString(o.sep())
		}
		if err := writeArm(b, arm, o); err != nil {
			return nil, err
		}
	}
	if len(arms) == 0 {
		return nil, nil
	}
	return arms[0].Head, nil
}

// writeArm writes one union arm as a SELECT over one aliased source per
// access leaf, in Pos order: the atom's table (or RDF subselect) as tᵢ,
// or — for a factorized arm — the UNION subselect of the block's
// alternatives as bᵢ. The first binding of each variable names its
// column; every later binding and every constant becomes a WHERE
// condition.
func writeArm(b *strings.Builder, arm *plan.Node, o Options) error {
	leaves, err := plan.ArmLeaves(arm)
	if err != nil {
		return err
	}
	alias := "t"
	if arm.Factorized {
		alias = "b"
	}
	varCol := map[string]string{}
	var conds []string
	for i, acc := range leaves {
		a := acc.Atoms[0] // a block's alternatives bind the same arguments
		src := fmt.Sprintf("%s%d", alias, i)
		for j, t := range a.Args {
			col := src + "." + colName(a, j)
			if t.Const {
				conds = append(conds, col+" = '"+t.Name+"'")
				continue
			}
			if prev, ok := varCol[t.Name]; ok {
				if prev != col {
					conds = append(conds, prev+" = "+col)
				}
			} else {
				varCol[t.Name] = col
			}
		}
	}
	sep := o.sep()
	b.WriteString("SELECT DISTINCT ")
	if len(arm.Head) == 0 {
		b.WriteString("1")
	}
	for i, h := range arm.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		if h.Const {
			b.WriteString("'" + h.Name + "'")
		} else {
			b.WriteString(varCol[h.Name])
		}
		fmt.Fprintf(b, " AS h%d", i)
	}
	b.WriteString(sep)
	b.WriteString("FROM ")
	for i, acc := range leaves {
		if i > 0 {
			b.WriteString(", ")
		}
		if !arm.Factorized {
			writeAtomSource(b, acc.Atoms[0], o)
		} else {
			b.WriteString("(")
			for k, a := range acc.Atoms {
				if k > 0 {
					b.WriteString(" UNION ")
				}
				b.WriteString("SELECT ")
				for j := range a.Args {
					if j > 0 {
						b.WriteString(", ")
					}
					b.WriteString(colName(a, j))
				}
				b.WriteString(" FROM ")
				writeAtomSource(b, a, o)
			}
			b.WriteString(")")
		}
		fmt.Fprintf(b, " %s%d", alias, i)
	}
	if len(conds) > 0 {
		b.WriteString(sep)
		b.WriteString("WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	return nil
}

func colName(a query.Atom, j int) string {
	if a.Arity() == 1 {
		return "id"
	}
	if j == 0 {
		return "s"
	}
	return "o"
}

// writeAtomSource renders the table (simple layout) or the hashed-column
// subselect (RDF layout) backing one atom.
func writeAtomSource(b *strings.Builder, a query.Atom, o Options) {
	name := sanitize(a.Pred)
	if o.Layout == engine.LayoutSimple {
		if a.Arity() == 1 {
			b.WriteString("c_" + name)
		} else {
			b.WriteString("r_" + name)
		}
		return
	}
	// RDF layout: the DB2RDF access expands the predicate over every
	// hashed column of the DPH table (cf. [9]); concepts go through the
	// reserved rdf:type predicate.
	k := o.slots()
	b.WriteString("(SELECT entry AS ")
	if a.Arity() == 1 {
		b.WriteString("id FROM dph WHERE ")
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteString(" OR ")
			}
			fmt.Fprintf(b, "(pred%d = 'rdf:type' AND val%d = 'class:%s')", i, i, a.Pred)
		}
		b.WriteString(")")
		return
	}
	b.WriteString("s, CASE ")
	for i := 0; i < k; i++ {
		fmt.Fprintf(b, "WHEN pred%d = '%s' THEN val%d ", i, a.Pred, i)
	}
	b.WriteString("END AS o FROM dph WHERE ")
	for i := 0; i < k; i++ {
		if i > 0 {
			b.WriteString(" OR ")
		}
		fmt.Fprintf(b, "pred%d = '%s'", i, a.Pred)
	}
	b.WriteString(")")
}

// writeJoinTail writes the final SELECT over the materialized fragments.
func writeJoinTail(b *strings.Builder, head []query.Term, fragHeads [][]query.Term, o Options) {
	sep := o.sep()
	// Map each variable to its first fragment column.
	varCol := map[string]string{}
	for i, fh := range fragHeads {
		for j, t := range fh {
			if _, ok := varCol[t.Name]; !ok {
				varCol[t.Name] = fmt.Sprintf("f%d.h%d", i+1, j)
			}
		}
	}
	b.WriteString("SELECT DISTINCT ")
	if len(head) == 0 {
		b.WriteString("1")
	}
	for i, h := range head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(varCol[h.Name])
	}
	b.WriteString(sep)
	b.WriteString("FROM ")
	for i := range fragHeads {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "f%d", i+1)
	}
	var conds []string
	seen := map[string]string{}
	for i, fh := range fragHeads {
		for j, t := range fh {
			col := fmt.Sprintf("f%d.h%d", i+1, j)
			if prev, ok := seen[t.Name]; ok {
				if prev != col {
					conds = append(conds, prev+" = "+col)
				}
			} else {
				seen[t.Name] = col
			}
		}
	}
	if len(conds) > 0 {
		b.WriteString(sep)
		b.WriteString("WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
}

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
	"strconv"
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
	// Args binds the parameters of a parameterized tree
	// (query.Parameterize): parameter i renders as the literal Args[i],
	// so the text is the instance's statement. Render fails on a
	// parameter without an argument.
	Args []string
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

// Render renders a plan tree — a cover, or a single fragment — as one
// statement:
//
//	WITH f1 AS (...), ..., fn AS (...)
//	SELECT DISTINCT x̄ FROM f1, ..., fn WHERE cond(1..n)
//
// A single fragment is f1 alone, selected under its own head. A tree of
// any other shape is an error. Render serves the sql backend and
// diagnostics; Measure sizes the same statement without building it.
func Render(n *plan.Node, o Options) (string, error) {
	var b strings.Builder
	w := writer{b: &b, args: o.Args}
	if err := writeStatement(&w, n, o); err != nil {
		return "", err
	}
	if w.unbound > 0 {
		return "", fmt.Errorf("sqlgen: parameter ?%d has no argument", w.unbound-1)
	}
	return b.String(), nil
}

// StatementSize is the length of a parameterized tree's statement as a
// function of its arguments: Fixed bytes, plus Params[i] literals of
// argument i.
type StatementSize struct {
	Fixed  int
	Params []int
}

// Len returns len(Render) of the instance with args, which must bind
// every parameter: a literal is its text with quotes doubled, quoted.
func (s StatementSize) Len(args []string) int {
	n := s.Fixed
	for i, k := range s.Params {
		n += k * (2 + len(args[i]) + strings.Count(args[i], "'"))
	}
	return n
}

// Measure sizes the statement of n once for all its instances without
// building any text: the same writers run into a byte counter, which
// counts every byte but the parameters' literals, and how often each
// parameter is written (o.Args is ignored). Len then gives
// len(Render(n, o)) for any arguments. It serves the statement-size
// limit (engine.Profile.CheckStatementSize), the one thing off the sql
// backend that reads the statement: core measures a plan when it
// builds it and sizes each run's instance with Len.
func Measure(n *plan.Node, o Options) (StatementSize, error) {
	w := writer{measure: true}
	if err := writeStatement(&w, n, o); err != nil {
		return StatementSize{}, err
	}
	return StatementSize{Fixed: w.n, Params: w.occ}, nil
}

// writeStatement writes Render's statement.
func writeStatement(w *writer, n *plan.Node, o Options) error {
	frags := plan.CoverFragments(n)
	cover := frags != nil
	if !cover {
		frags = []*plan.Node{n}
	}
	sep := o.sep()
	w.str("WITH ")
	fragHeads := make([][]query.Term, len(frags))
	for i, f := range frags {
		if i > 0 {
			w.str(", ")
			w.str(sep)
		}
		w.byte('f')
		w.int(i + 1)
		w.str(" AS (")
		h, err := writeUnion(w, f, o)
		if err != nil {
			return err
		}
		fragHeads[i] = h
		w.byte(')')
	}
	head := fragHeads[0]
	if cover {
		head = n.Inputs[0].Head
	}
	w.str(sep)
	writeJoinTail(w, head, fragHeads, o)
	return nil
}

// UCQ renders a union of CQs: the body of one WITH clause. UCQ, JUCQ
// and JUSCQ render through the plan tree of their lowering; one Render
// rejects (a disjunct without atoms) renders as the empty string.
func UCQ(u query.UCQ, o Options) string {
	var b strings.Builder
	if _, err := writeUnion(&writer{b: &b}, plan.FromUCQ(u), o); err != nil {
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

// writer is the one output path of every renderer. It appends to b
// when b is set (Render) and otherwise only counts (Measure); n is the
// byte count either way. Parameters write args' literals, or, when
// measuring, only count into occ.
type writer struct {
	b *strings.Builder
	n int

	args    []string
	measure bool
	occ     []int
	unbound int // a parameter written without an argument, offset by one
}

func (w *writer) str(s string) {
	w.n += len(s)
	if w.b != nil {
		w.b.WriteString(s)
	}
}

func (w *writer) byte(c byte) {
	w.n++
	if w.b != nil {
		w.b.WriteByte(c)
	}
}

func (w *writer) int(i int) { w.str(strconv.Itoa(i)) }

// constant writes a constant or parameter term as a string literal.
func (w *writer) constant(t query.Term) {
	i := t.ParamIndex()
	switch {
	case i < 0:
		w.lit(t.Name)
	case w.measure:
		for len(w.occ) <= i {
			w.occ = append(w.occ, 0)
		}
		w.occ[i]++
	case i < len(w.args):
		w.lit(w.args[i])
	default:
		w.unbound = i + 1
	}
}

// lit writes s as a string literal.
func (w *writer) lit(s string) {
	w.byte('\'')
	w.litBody(s)
	w.byte('\'')
}

// litBody writes the inside of a string literal: s with every single
// quote doubled, as SQL escapes it.
func (w *writer) litBody(s string) {
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			w.str(s)
			return
		}
		w.str(s[:i+1])
		w.byte('\'')
		s = s[i+1:]
	}
}

// ident writes a predicate name as an SQL identifier: every rune other
// than an ASCII letter, digit or underscore becomes one '_'.
func (w *writer) ident(name string) {
	clean := true
	for i := 0; i < len(name) && clean; i++ {
		clean = identByte(name[i])
	}
	if clean {
		w.str(name)
		return
	}
	for _, r := range name {
		if r < 0x80 && identByte(byte(r)) {
			w.byte(byte(r))
		} else {
			w.byte('_')
		}
	}
}

func identByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// colRef is one column of one FROM source: t3.o or b0.id in an arm
// (source src of alias t or b, column col), f2.h1 in the join tail
// (fragment src, column col "h" numbered by head).
type colRef struct {
	alias byte
	src   int
	col   string
	head  int
}

func (w *writer) ref(c colRef) {
	w.byte(c.alias)
	w.int(c.src)
	w.byte('.')
	w.str(c.col)
	if c.alias == 'f' {
		w.int(c.head)
	}
}

// cond opens the next WHERE condition, counting them in *k: the clause
// before the first, " AND " before every later one.
func (w *writer) cond(k *int, sep string) {
	if *k == 0 {
		w.str(sep)
		w.str("WHERE ")
	} else {
		w.str(" AND ")
	}
	*k++
}

// binding names the column of a variable's first occurrence.
type binding struct {
	name string
	col  colRef
}

// bindings maps variables to columns by linear search: an arm or a
// cover binds a handful of variables, and callers keep the slice in a
// stack buffer.
type bindings []binding

func (bs bindings) lookup(name string) (colRef, bool) {
	for _, b := range bs {
		if b.name == name {
			return b.col, true
		}
	}
	return colRef{}, false
}

// maxStackBindings sizes the stack buffers of bindings; a larger arm
// spills to the heap.
const maxStackBindings = 16

// writeUnion writes one fragment — its arms as SELECTs separated by
// UNION — and returns the fragment's head, its first arm's.
func writeUnion(w *writer, frag *plan.Node, o Options) ([]query.Term, error) {
	arms, err := plan.Arms(frag)
	if err != nil {
		return nil, err
	}
	for i, arm := range arms {
		if i > 0 {
			w.str(o.sep())
			w.str("UNION")
			w.str(o.sep())
		}
		if err := writeArm(w, arm, o); err != nil {
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
func writeArm(w *writer, arm *plan.Node, o Options) error {
	leaves, err := plan.ArmLeaves(arm)
	if err != nil {
		return err
	}
	alias := byte('t')
	if arm.Factorized {
		alias = 'b'
	}
	var buf [maxStackBindings]binding
	vars := bindings(buf[:0])
	for i, acc := range leaves {
		a := acc.Atoms[0] // a block's alternatives bind the same arguments
		for j, t := range a.Args {
			if _, ok := vars.lookup(t.Name); !t.Const && !ok {
				vars = append(vars, binding{t.Name, colRef{alias: alias, src: i, col: colName(a, j)}})
			}
		}
	}
	sep := o.sep()
	w.str("SELECT DISTINCT ")
	if len(arm.Head) == 0 {
		w.byte('1')
	}
	for i, h := range arm.Head {
		if i > 0 {
			w.str(", ")
		}
		if h.Const {
			w.constant(h)
		} else if c, ok := vars.lookup(h.Name); ok {
			w.ref(c)
		}
		w.str(" AS h")
		w.int(i)
	}
	w.str(sep)
	w.str("FROM ")
	for i, acc := range leaves {
		if i > 0 {
			w.str(", ")
		}
		if !arm.Factorized {
			writeAtomSource(w, acc.Atoms[0], o)
		} else {
			w.byte('(')
			for k, a := range acc.Atoms {
				if k > 0 {
					w.str(" UNION ")
				}
				w.str("SELECT ")
				for j := range a.Args {
					if j > 0 {
						w.str(", ")
					}
					w.str(colName(a, j))
				}
				w.str(" FROM ")
				writeAtomSource(w, a, o)
			}
			w.byte(')')
		}
		w.byte(' ')
		w.byte(alias)
		w.int(i)
	}
	conds := 0
	for i, acc := range leaves {
		a := acc.Atoms[0]
		for j, t := range a.Args {
			c := colRef{alias: alias, src: i, col: colName(a, j)}
			first, _ := vars.lookup(t.Name)
			if !t.Const && first == c {
				continue
			}
			w.cond(&conds, sep)
			if t.Const {
				w.ref(c)
				w.str(" = ")
				w.constant(t)
			} else {
				w.ref(first)
				w.str(" = ")
				w.ref(c)
			}
		}
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
func writeAtomSource(w *writer, a query.Atom, o Options) {
	if o.Layout == engine.LayoutSimple {
		if a.Arity() == 1 {
			w.str("c_")
		} else {
			w.str("r_")
		}
		w.ident(a.Pred)
		return
	}
	// RDF layout: the DB2RDF access expands the predicate over every
	// hashed column of the DPH table (cf. [9]); concepts go through the
	// reserved rdf:type predicate.
	k := o.slots()
	w.str("(SELECT entry AS ")
	if a.Arity() == 1 {
		w.str("id FROM dph WHERE ")
		for i := 0; i < k; i++ {
			if i > 0 {
				w.str(" OR ")
			}
			w.str("(pred")
			w.int(i)
			w.str(" = 'rdf:type' AND val")
			w.int(i)
			w.str(" = 'class:")
			w.litBody(a.Pred)
			w.str("')")
		}
		w.byte(')')
		return
	}
	w.str("s, CASE ")
	for i := 0; i < k; i++ {
		w.str("WHEN pred")
		w.int(i)
		w.str(" = ")
		w.lit(a.Pred)
		w.str(" THEN val")
		w.int(i)
		w.byte(' ')
	}
	w.str("END AS o FROM dph WHERE ")
	for i := 0; i < k; i++ {
		if i > 0 {
			w.str(" OR ")
		}
		w.str("pred")
		w.int(i)
		w.str(" = ")
		w.lit(a.Pred)
	}
	w.byte(')')
}

// writeJoinTail writes the final SELECT over the materialized fragments.
// Each variable is read from its first fragment column; every later
// column of the same name becomes a join condition.
func writeJoinTail(w *writer, head []query.Term, fragHeads [][]query.Term, o Options) {
	var buf [maxStackBindings]binding
	vars := bindings(buf[:0])
	for i, fh := range fragHeads {
		for j, t := range fh {
			if _, ok := vars.lookup(t.Name); !ok {
				vars = append(vars, binding{t.Name, colRef{alias: 'f', src: i + 1, col: "h", head: j}})
			}
		}
	}
	sep := o.sep()
	w.str("SELECT DISTINCT ")
	if len(head) == 0 {
		w.byte('1')
	}
	for i, h := range head {
		if i > 0 {
			w.str(", ")
		}
		if c, ok := vars.lookup(h.Name); ok {
			w.ref(c)
		}
	}
	w.str(sep)
	w.str("FROM ")
	for i := range fragHeads {
		if i > 0 {
			w.str(", ")
		}
		w.byte('f')
		w.int(i + 1)
	}
	conds := 0
	for i, fh := range fragHeads {
		for j, t := range fh {
			c := colRef{alias: 'f', src: i + 1, col: "h", head: j}
			if first, _ := vars.lookup(t.Name); first != c {
				w.cond(&conds, sep)
				w.ref(first)
				w.str(" = ")
				w.ref(c)
			}
		}
	}
}

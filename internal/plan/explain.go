package plan

import (
	"fmt"
	"slices"
	"strings"
)

// UnknownRows marks an ExplainNode figure the backend could not
// attribute (estimates for operators the planner does not cost
// individually, actuals for operators with no physical counterpart).
const UnknownRows = -1

// ExplainNode annotates one plan operator with estimated and observed
// figures. EstRows/EstCost/ActualRows are UnknownRows (-1) where no
// figure applies; zero is a real observation.
type ExplainNode struct {
	Op         string         `json:"op"`
	Detail     string         `json:"detail,omitempty"`
	EstRows    float64        `json:"estRows"`
	EstCost    float64        `json:"estCost"`
	ActualRows int64          `json:"actualRows"`
	Children   []*ExplainNode `json:"children,omitempty"`
}

// Explain is the full explanation of one executed (or estimated)
// plan: which backend compiled it, the whole-plan estimate, the SQL
// text when a SQL backend produced one, and the annotated operator
// tree.
type Explain struct {
	Backend string       `json:"backend"`
	EstCost float64      `json:"estCost"`
	EstCard float64      `json:"estCard"`
	SQL     string       `json:"sql,omitempty"`
	Root    *ExplainNode `json:"root"`
}

// Skeleton mirrors the plan tree into an unannotated ExplainNode tree
// (every figure UnknownRows), returning the node map backends use to
// attach estimates and actual row counters. Details show the plan's
// parameters bound to args (DetailArgs): a run's EXPLAIN shows the
// instance it executed.
func Skeleton(n *Node, args []string) (*ExplainNode, map[*Node]*ExplainNode) {
	nodes := make([]ExplainNode, NodeCount(n))
	at := make(map[*Node]*ExplainNode, len(nodes))
	fill(n, nodes, nil, args, func(i int, m *Node) { at[m] = &nodes[i] })
	return &nodes[0], at
}

// FlatSkeleton is Skeleton without the node map: it returns the nodes
// in preorder, root first, and calls visit with every IR node and its
// index, once per path to a shared node.
func FlatSkeleton(n *Node, args []string, visit func(i int, m *Node)) []ExplainNode {
	nodes := make([]ExplainNode, NodeCount(n))
	fill(n, nodes, nil, args, visit)
	return nodes
}

// fill lays n's skeleton out flat in nodes (sized NodeCount(n)), in
// preorder. Every node's Children is a sub-slice of one shared pointer
// slice, the parents' runs in preorder. kidIdx, when non-nil, receives
// the index of the node behind each entry of that slice; visit, when
// non-nil, sees every IR node with its index before its inputs. Details
// bind parameters through args.
func fill(n *Node, nodes []ExplainNode, kidIdx []int32, args []string, visit func(int, *Node)) {
	kids := make([]*ExplainNode, len(nodes)-1)
	next, off := 0, 0
	var walk func(m *Node) int
	walk = func(m *Node) int {
		i := next
		next++
		e := &nodes[i]
		*e = ExplainNode{
			Op:         m.Op.String(),
			Detail:     m.DetailArgs(args),
			EstRows:    UnknownRows,
			EstCost:    UnknownRows,
			ActualRows: UnknownRows,
		}
		if visit != nil {
			visit(i, m)
		}
		if k := len(m.Inputs); k > 0 {
			base := off
			off += k
			e.Children = kids[base:off:off]
			for c, in := range m.Inputs {
				j := walk(in)
				kids[base+c] = &nodes[j]
				if kidIdx != nil {
					kidIdx[base+c] = int32(j)
				}
			}
		}
		return i
	}
	walk(n)
}

// ExplainTemplate is a plan's skeleton kept for copying: New hands out
// a fresh FlatSkeleton without rendering any Detail again, except the
// few that show a parameter.
type ExplainTemplate struct {
	nodes []ExplainNode
	kids  []int32 // the node index behind each shared Children entry
	// params lists the skeleton nodes whose Detail shows a parameter.
	params []paramDetail
}

// paramDetail is a skeleton node index and the IR node it renders.
type paramDetail struct {
	at int32
	n  *Node
}

// NewExplainTemplate renders n's skeleton once.
func NewExplainTemplate(n *Node) *ExplainTemplate {
	t := &ExplainTemplate{nodes: make([]ExplainNode, NodeCount(n))}
	t.kids = make([]int32, len(t.nodes)-1)
	fill(n, t.nodes, t.kids, nil, func(i int, m *Node) {
		if mentionsParam(m) {
			t.params = append(t.params, paramDetail{int32(i), m})
		}
	})
	return t
}

// New returns a copy of the skeleton that shares nothing mutable with
// the template or with earlier copies: the nodes in preorder, root
// first, as FlatSkeleton lays them out, with parameters bound to args.
func (t *ExplainTemplate) New(args []string) []ExplainNode {
	nodes := slices.Clone(t.nodes)
	if args != nil {
		for _, p := range t.params {
			nodes[p.at].Detail = p.n.DetailArgs(args)
		}
	}
	kids := make([]*ExplainNode, len(t.kids))
	for j, k := range t.kids {
		kids[j] = &nodes[k]
	}
	off := 0
	for i := range nodes {
		if k := len(nodes[i].Children); k > 0 {
			nodes[i].Children = kids[off : off+k : off+k]
			off += k
		}
	}
	return nodes
}

// Text renders the explanation as an indented tree, EXPLAIN ANALYZE
// style.
func (e *Explain) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "backend=%s estCost=%s estCard=%s\n", e.Backend, num(e.EstCost), num(e.EstCard))
	var walk func(n *ExplainNode, depth int)
	walk = func(n *ExplainNode, depth int) {
		label := n.Op
		if n.Detail != "" {
			label += " " + n.Detail
		}
		fmt.Fprintf(&b, "%s%-48s est=%-10s actual=%s\n",
			strings.Repeat("  ", depth), label, num(n.EstRows), actual(n.ActualRows))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if e.Root != nil {
		walk(e.Root, 0)
	}
	if e.SQL != "" {
		b.WriteString("sql: " + e.SQL + "\n")
	}
	return b.String()
}

func num(v float64) string {
	if v == UnknownRows {
		return "-"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", v), "0"), ".")
}

func actual(v int64) string {
	if v == UnknownRows {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

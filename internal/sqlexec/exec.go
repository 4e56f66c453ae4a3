package sqlexec

import (
	"fmt"
	"strings"

	"repro/internal/engine"
)

// rel is an intermediate relation: named columns over dictionary ids.
type rel struct {
	cols []string
	rows [][]int64
}

func (r *rel) colIndex(name string) int {
	for i, c := range r.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// resolve finds the column for a reference: exact "qual.col" when
// qualified, otherwise a unique ".col" suffix (or exact bare name).
func (r *rel) resolve(ref *ColRef) (int, error) {
	if ref.Qual != "" {
		if i := r.colIndex(ref.Qual + "." + ref.Col); i >= 0 {
			return i, nil
		}
		return -1, fmt.Errorf("sqlexec: unknown column %s.%s", ref.Qual, ref.Col)
	}
	if i := r.colIndex(ref.Col); i >= 0 {
		return i, nil
	}
	found := -1
	for i, c := range r.cols {
		if strings.HasSuffix(c, "."+ref.Col) {
			if found >= 0 {
				return -1, fmt.Errorf("sqlexec: ambiguous column %s", ref.Col)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("sqlexec: unknown column %s", ref.Col)
	}
	return found, nil
}

// Exec parses and executes a statement over a simple-layout database,
// returning a decoded engine.Relation.
func Exec(sql string, db *engine.DB) (*engine.Relation, error) {
	if db.Layout != engine.LayoutSimple {
		return nil, fmt.Errorf("sqlexec: only the simple layout is executable from SQL (got %v)", db.Layout)
	}
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Run(stmt, db)
}

// Run executes a parsed statement.
func Run(stmt *Stmt, db *engine.DB) (*engine.Relation, error) {
	env := &execEnv{db: db, ctes: make(map[string]*rel)}
	for _, cte := range stmt.CTEs {
		r, err := env.union(cte.Body)
		if err != nil {
			return nil, fmt.Errorf("in WITH %s: %w", cte.Name, err)
		}
		env.ctes[cte.Name] = r
	}
	r, err := env.union(stmt.Body)
	if err != nil {
		return nil, err
	}
	return &engine.Relation{Schema: r.cols, Rows: r.rows}, nil
}

type execEnv struct {
	db   *engine.DB
	ctes map[string]*rel
}

func (e *execEnv) union(u *Union) (*rel, error) {
	var out *rel
	for _, sel := range u.Selects {
		r, err := e.selectStmt(sel)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = &rel{cols: r.cols}
		} else if len(out.cols) != len(r.cols) {
			return nil, fmt.Errorf("sqlexec: UNION arms with different arities (%d vs %d)", len(out.cols), len(r.cols))
		}
		out.rows = append(out.rows, r.rows...)
	}
	if out == nil {
		return &rel{}, nil
	}
	distinct(out)
	return out, nil
}

func distinct(r *rel) {
	seen := make(map[string]bool, len(r.rows))
	dst := r.rows[:0]
	var key strings.Builder
	for _, row := range r.rows {
		key.Reset()
		for _, v := range row {
			fmt.Fprintf(&key, "%x|", v)
		}
		k := key.String()
		if !seen[k] {
			seen[k] = true
			dst = append(dst, row)
		}
	}
	r.rows = dst
}

// sourceRel materializes one FROM source with columns prefixed by its
// effective alias.
func (e *execEnv) sourceRel(src Source) (*rel, error) {
	alias := src.Alias
	var base *rel
	switch {
	case src.Sub != nil:
		r, err := e.union(src.Sub)
		if err != nil {
			return nil, err
		}
		base = r
	case e.ctes[src.Table] != nil:
		c := e.ctes[src.Table]
		base = &rel{cols: c.cols, rows: c.rows}
		if alias == "" {
			alias = src.Table
		}
	case strings.HasPrefix(src.Table, "c_"):
		name := src.Table[2:]
		var rows [][]int64
		for _, id := range e.db.ConceptMembers(name) {
			rows = append(rows, []int64{id})
		}
		base = &rel{cols: []string{"id"}, rows: rows}
		if alias == "" {
			alias = src.Table
		}
	case strings.HasPrefix(src.Table, "r_"):
		name := src.Table[2:]
		var rows [][]int64
		e.db.RolePairs(name, func(s, o int64) {
			rows = append(rows, []int64{s, o})
		})
		base = &rel{cols: []string{"s", "o"}, rows: rows}
		if alias == "" {
			alias = src.Table
		}
	default:
		return nil, fmt.Errorf("sqlexec: unknown table %q", src.Table)
	}
	if alias == "" {
		return base, nil
	}
	cols := make([]string, len(base.cols))
	for i, c := range base.cols {
		// strip any previous qualification; the alias renames the source
		if j := strings.LastIndexByte(c, '.'); j >= 0 {
			c = c[j+1:]
		}
		cols[i] = alias + "." + c
	}
	return &rel{cols: cols, rows: base.rows}, nil
}

func (e *execEnv) selectStmt(sel *Select) (*rel, error) {
	// Progressive join over sources, applying WHERE conditions as soon
	// as both operands are available.
	applied := make([]bool, len(sel.Where))
	var cur *rel
	for _, src := range sel.Sources {
		next, err := e.sourceRel(src)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = next
		} else {
			cur, err = e.join(cur, next, sel.Where, applied)
			if err != nil {
				return nil, err
			}
		}
		if cur, err = e.applyFilters(cur, sel.Where, applied); err != nil {
			return nil, err
		}
	}
	if cur == nil {
		return nil, fmt.Errorf("sqlexec: SELECT without sources")
	}
	for i, done := range applied {
		if !done {
			return nil, fmt.Errorf("sqlexec: unsatisfiable condition %d (columns never available)", i)
		}
	}
	// Project.
	out := &rel{}
	type proj struct {
		col   int // column index when isCol
		lit   int64
		isCol bool
		ok    bool // false when a literal is absent from the dictionary
	}
	projs := make([]proj, 0, len(sel.Items))
	for _, it := range sel.Items {
		name := it.Alias
		switch {
		case it.IsOne:
			// A boolean head's 1 projects no column: a true boolean
			// query answers one empty tuple, as the other backends do.
			continue
		case it.Ref == nil:
			if name == "" {
				name = "lit"
			}
			id, found := e.db.Dict.Lookup(it.Lit)
			projs = append(projs, proj{lit: id, ok: found})
		default:
			if name == "" {
				name = it.Ref.Col
			}
			c, err := cur.resolve(it.Ref)
			if err != nil {
				return nil, err
			}
			projs = append(projs, proj{col: c, isCol: true, ok: true})
		}
		out.cols = append(out.cols, name)
	}
	for _, row := range cur.rows {
		pr := make([]int64, len(projs))
		ok := true
		for i, p := range projs {
			switch {
			case !p.ok:
				ok = false
			case p.isCol:
				pr[i] = row[p.col]
			default:
				pr[i] = p.lit
			}
			if !ok {
				break
			}
		}
		if ok {
			out.rows = append(out.rows, pr)
		}
	}
	if sel.Distinct {
		distinct(out)
	}
	return out, nil
}

// join hash-joins cur with next on every WHERE equality whose operands
// span the two relations; conditions used are marked applied.
func (e *execEnv) join(cur, next *rel, conds []Cond, applied []bool) (*rel, error) {
	var curIdx, nextIdx []int
	for i, c := range conds {
		if applied[i] || c.LIsLit || c.RIsLit {
			continue
		}
		li, lerr := cur.resolve(c.L)
		ri, rerr := next.resolve(c.R)
		if lerr == nil && rerr == nil {
			curIdx = append(curIdx, li)
			nextIdx = append(nextIdx, ri)
			applied[i] = true
			continue
		}
		// try the swapped orientation
		li2, lerr2 := next.resolve(c.L)
		ri2, rerr2 := cur.resolve(c.R)
		if lerr2 == nil && rerr2 == nil {
			curIdx = append(curIdx, ri2)
			nextIdx = append(nextIdx, li2)
			applied[i] = true
		}
	}
	out := &rel{cols: append(append([]string{}, cur.cols...), next.cols...)}
	key := func(row []int64, idx []int) string {
		var b strings.Builder
		for _, i := range idx {
			fmt.Fprintf(&b, "%x|", row[i])
		}
		return b.String()
	}
	buckets := make(map[string][][]int64, len(next.rows))
	for _, row := range next.rows {
		k := key(row, nextIdx)
		buckets[k] = append(buckets[k], row)
	}
	for _, lrow := range cur.rows {
		for _, rrow := range buckets[key(lrow, curIdx)] {
			row := make([]int64, 0, len(out.cols))
			row = append(row, lrow...)
			row = append(row, rrow...)
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// applyFilters applies every not-yet-applied condition whose operands
// all resolve within cur (literal comparisons and same-source column
// equalities).
func (e *execEnv) applyFilters(cur *rel, conds []Cond, applied []bool) (*rel, error) {
	for i, c := range conds {
		if applied[i] {
			continue
		}
		switch {
		case c.LIsLit && c.RIsLit:
			applied[i] = true
			if c.LLit != c.RLit {
				cur = &rel{cols: cur.cols}
			}
		case c.LIsLit || c.RIsLit:
			ref, lit := c.L, c.RLit
			if c.LIsLit {
				ref, lit = c.R, c.LLit
			}
			col, err := cur.resolve(ref)
			if err != nil {
				continue // column not available yet
			}
			applied[i] = true
			id, found := e.db.Dict.Lookup(lit)
			out := &rel{cols: cur.cols}
			if found {
				for _, row := range cur.rows {
					if row[col] == id {
						out.rows = append(out.rows, row)
					}
				}
			}
			cur = out
		default:
			li, lerr := cur.resolve(c.L)
			ri, rerr := cur.resolve(c.R)
			if lerr != nil || rerr != nil {
				continue
			}
			applied[i] = true
			out := &rel{cols: cur.cols}
			for _, row := range cur.rows {
				if row[li] == row[ri] {
					out.rows = append(out.rows, row)
				}
			}
			cur = out
		}
	}
	return cur, nil
}

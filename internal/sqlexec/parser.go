package sqlexec

import "fmt"

// AST for the sqlgen dialect.

// Stmt is a full statement: optional WITH clauses, then a union body.
type Stmt struct {
	CTEs []CTE
	Body *Union
}

// CTE is one WITH binding: name AS (union).
type CTE struct {
	Name string
	Body *Union
}

// Union is one or more SELECTs joined by UNION (set semantics).
type Union struct {
	Selects []*Select
}

// Select is SELECT [DISTINCT] items FROM sources [WHERE conds].
type Select struct {
	Distinct bool
	Items    []Item
	Sources  []Source
	Where    []Cond // conjunction of equality predicates
}

// Item is a projection item: a column reference or a literal, with an
// optional alias ("t0.id AS h0", "'lit' AS h1", "1").
type Item struct {
	Ref   *ColRef
	Lit   string // literal string value when Ref is nil and IsOne false
	IsOne bool   // the constant 1 of a boolean head: it projects no column
	Alias string
}

// ColRef is qualified (t0.id) or bare (id, inside subselects).
type ColRef struct {
	Qual string // may be empty
	Col  string
}

// Source is a table or an inline subselect, with an alias.
type Source struct {
	Table string // table or CTE name when Sub is nil
	Sub   *Union
	Alias string
}

// Cond is an equality predicate between column refs and/or literals.
type Cond struct {
	L, R   *ColRef
	LLit   string
	RLit   string
	LIsLit bool
	RIsLit bool
}

// Parse parses a statement of the sqlgen dialect.
func Parse(in string) (*Stmt, error) {
	toks, err := lex(in)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlexec: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.cur().kind == kind && p.cur().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) error {
	if !p.accept(kind, text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	return nil
}

func (p *parser) stmt() (*Stmt, error) {
	s := &Stmt{}
	if p.accept(tokKeyword, "WITH") {
		for {
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected CTE name")
			}
			name := p.next().text
			if err := p.expect(tokKeyword, "AS"); err != nil {
				return nil, err
			}
			if err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			body, err := p.union()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			s.CTEs = append(s.CTEs, CTE{Name: name, Body: body})
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	body, err := p.union()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

func (p *parser) union() (*Union, error) {
	u := &Union{}
	for {
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		u.Selects = append(u.Selects, sel)
		if !p.accept(tokKeyword, "UNION") {
			return u, nil
		}
	}
}

func (p *parser) selectStmt() (*Select, error) {
	if err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &Select{}
	s.Distinct = p.accept(tokKeyword, "DISTINCT")
	for {
		item, err := p.item()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		src, err := p.source()
		if err != nil {
			return nil, err
		}
		s.Sources = append(s.Sources, src)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		for {
			c, err := p.cond()
			if err != nil {
				return nil, err
			}
			s.Where = append(s.Where, c)
			if !p.accept(tokKeyword, "AND") {
				break
			}
		}
	}
	return s, nil
}

func (p *parser) item() (Item, error) {
	var it Item
	switch p.cur().kind {
	case tokNumber:
		if p.next().text != "1" {
			return it, p.errf("only the literal 1 is supported in projections")
		}
		it.IsOne = true
	case tokString:
		it.Lit = p.next().text
	case tokIdent:
		ref, err := p.colRef()
		if err != nil {
			return it, err
		}
		it.Ref = ref
	default:
		return it, p.errf("expected projection item, found %q", p.cur().text)
	}
	if p.accept(tokKeyword, "AS") {
		if p.cur().kind != tokIdent {
			return it, p.errf("expected alias")
		}
		it.Alias = p.next().text
	}
	return it, nil
}

func (p *parser) colRef() (*ColRef, error) {
	if p.cur().kind != tokIdent {
		return nil, p.errf("expected column reference")
	}
	first := p.next().text
	if p.accept(tokSymbol, ".") {
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected column after '.'")
		}
		return &ColRef{Qual: first, Col: p.next().text}, nil
	}
	return &ColRef{Col: first}, nil
}

func (p *parser) source() (Source, error) {
	var src Source
	if p.accept(tokSymbol, "(") {
		sub, err := p.union()
		if err != nil {
			return src, err
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return src, err
		}
		src.Sub = sub
	} else {
		if p.cur().kind != tokIdent {
			return src, p.errf("expected table name")
		}
		src.Table = p.next().text
	}
	// optional alias (bare identifier)
	if p.cur().kind == tokIdent {
		src.Alias = p.next().text
	}
	return src, nil
}

func (p *parser) cond() (Cond, error) {
	var c Cond
	switch p.cur().kind {
	case tokString:
		c.LIsLit = true
		c.LLit = p.next().text
	case tokIdent:
		ref, err := p.colRef()
		if err != nil {
			return c, err
		}
		c.L = ref
	default:
		return c, p.errf("expected condition operand")
	}
	if err := p.expect(tokSymbol, "="); err != nil {
		return c, err
	}
	switch p.cur().kind {
	case tokString:
		c.RIsLit = true
		c.RLit = p.next().text
	case tokIdent:
		ref, err := p.colRef()
		if err != nil {
			return c, err
		}
		c.R = ref
	default:
		return c, p.errf("expected condition operand")
	}
	return c, nil
}

// Package sqlexec is the engine's SQL front-end: it parses the SQL
// dialect produced by package sqlgen (WITH, SELECT DISTINCT, UNION,
// inline subselects, equality predicates) and executes it against a
// simple-layout engine.DB. It closes the paper's loop — reformulations
// are shipped to the RDBMS *as SQL text* — and serves as an end-to-end
// oracle: sqlgen → sqlexec must agree with the engine's native
// evaluation (property-tested).
//
// Scope: the simple layout's grammar. RDF-layout SQL (hashed-column
// CASE expansions) is generated for statement-size accounting and
// executed natively by the engine; parsing it is deliberately out of
// scope.
package sqlexec

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokString // 'literal'
	tokNumber
	tokSymbol // ( ) , = .
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased
	pos  int
}

var keywords = map[string]bool{
	"WITH": true, "AS": true, "SELECT": true, "DISTINCT": true,
	"FROM": true, "WHERE": true, "AND": true, "OR": true, "UNION": true,
}

// lex tokenizes the statement.
func lex(in string) ([]token, error) {
	var out []token
	i := 0
	for i < len(in) {
		c := in[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			for j < len(in) && in[j] != '\'' {
				j++
			}
			if j == len(in) {
				return nil, fmt.Errorf("sqlexec: unterminated string at %d", i)
			}
			out = append(out, token{kind: tokString, text: in[i+1 : j], pos: i})
			i = j + 1
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '.':
			out = append(out, token{kind: tokSymbol, text: string(c), pos: i})
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(in) && in[j] >= '0' && in[j] <= '9' {
				j++
			}
			out = append(out, token{kind: tokNumber, text: in[i:j], pos: i})
			i = j
		case isIdentStart(c):
			j := i
			for j < len(in) && isIdentPart(in[j]) {
				j++
			}
			word := in[i:j]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				out = append(out, token{kind: tokKeyword, text: upper, pos: i})
			} else {
				out = append(out, token{kind: tokIdent, text: word, pos: i})
			}
			i = j
		default:
			return nil, fmt.Errorf("sqlexec: unexpected character %q at %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF, pos: len(in)})
	return out, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

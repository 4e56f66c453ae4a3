// Package ntriples reads and writes ABoxes as N-Triples, the exchange
// format of the paper's RDF setting: role assertions become plain
// triples, concept assertions become rdf:type triples. Only the
// IRI-resource subset is supported (our individuals are resources, not
// literals), with a configurable base IRI for round-tripping the
// compact local names used everywhere else in this repository.
package ntriples

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/dllite"
)

// RDFType is the predicate IRI marking concept assertions.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// DefaultBase is the default namespace for local names.
const DefaultBase = "http://example.org/"

// Options configure the mapping between local names and IRIs.
type Options struct {
	// Base is prepended to local names on write and stripped on read;
	// defaults to DefaultBase.
	Base string
}

func (o Options) base() string {
	if o.Base == "" {
		return DefaultBase
	}
	return o.Base
}

// Write serializes the ABox as N-Triples.
func Write(w io.Writer, ab *dllite.ABox, o Options) error {
	bw := bufio.NewWriter(w)
	base := o.base()
	for _, as := range ab.Assertions {
		var err error
		if as.IsRole() {
			_, err = fmt.Fprintf(bw, "<%s%s> <%s%s> <%s%s> .\n", base, as.S, base, as.Pred, base, as.O)
		} else {
			_, err = fmt.Fprintf(bw, "<%s%s> <%s> <%s%s> .\n", base, as.S, RDFType, base, as.Pred)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses N-Triples into an ABox. IRIs under the base are
// shortened to local names; rdf:type triples become concept assertions.
// Blank lines and '#' comments are skipped.
func Read(r io.Reader, o Options) (*dllite.ABox, error) {
	ab := dllite.NewABox()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	base := o.base()
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, obj, err := parseTriple(line)
		if err != nil {
			return nil, fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
		subj := strings.TrimPrefix(s, base)
		pred := strings.TrimPrefix(p, base)
		object := strings.TrimPrefix(obj, base)
		if p == RDFType {
			ab.Add(dllite.ConceptAssertion(object, subj))
		} else {
			ab.Add(dllite.RoleAssertion(pred, subj, object))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ab, nil
}

// parseTriple splits one "<s> <p> <o> ." line.
func parseTriple(line string) (s, p, o string, err error) {
	rest, ok := strings.CutSuffix(line, ".")
	if !ok {
		return "", "", "", fmt.Errorf("missing terminating '.' in %q", line)
	}
	rest = strings.TrimSpace(rest)
	var parts []string
	for len(rest) > 0 {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		if rest[0] != '<' {
			return "", "", "", fmt.Errorf("expected IRI in %q (literals are unsupported)", line)
		}
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return "", "", "", fmt.Errorf("unterminated IRI in %q", line)
		}
		parts = append(parts, rest[1:end])
		rest = rest[end+1:]
	}
	if len(parts) != 3 {
		return "", "", "", fmt.Errorf("want 3 terms, got %d in %q", len(parts), line)
	}
	for _, part := range parts {
		if part == "" {
			return "", "", "", fmt.Errorf("empty IRI in %q", line)
		}
	}
	return parts[0], parts[1], parts[2], nil
}

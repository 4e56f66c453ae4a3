package sqlexec

import "testing"

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT DISTINCT t0.id AS h0 FROM c_A t0 WHERE t0.id = 'x y'")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[tokenKind]int{}
	for _, tok := range toks {
		kinds[tok.kind]++
	}
	if kinds[tokKeyword] != 6 { // SELECT DISTINCT AS FROM WHERE + ... count
		t.Logf("tokens: %v", toks)
	}
	// The quoted literal keeps its inner spaces.
	found := false
	for _, tok := range toks {
		if tok.kind == tokString && tok.text == "x y" {
			found = true
		}
	}
	if !found {
		t.Error("string literal not lexed")
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
}

// TestLexEscapedQuote: a doubled quote inside a literal is one quote
// of its text, and does not end the literal.
func TestLexEscapedQuote(t *testing.T) {
	for in, want := range map[string]string{
		`'O''Brien Lab'`: `O'Brien Lab`,
		`''''`:           `'`,
		`'a'''`:          `a'`,
		`''`:             ``,
	} {
		toks, err := lex(in + " x")
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if len(toks) != 3 || toks[0].kind != tokString || toks[0].text != want || toks[1].text != "x" {
			t.Errorf("%s: tokens %v, want the literal %q then x", in, toks, want)
		}
	}
	for _, in := range []string{`'O''Brien`, `'a''`} {
		if _, err := lex(in); err == nil {
			t.Errorf("%s: unterminated literal lexed", in)
		}
	}
}

func TestLexKeywordCaseInsensitive(t *testing.T) {
	toks, err := lex("select distinct from")
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks[:3] {
		if tok.kind != tokKeyword {
			t.Errorf("token %q not a keyword", tok.text)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := lex("valid until ;"); err == nil {
		t.Error("unexpected character must fail")
	}
}

func TestLexNumbersAndSymbols(t *testing.T) {
	toks, err := lex("1 ( ) , = . 42")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokNumber || toks[0].text != "1" {
		t.Errorf("first token = %v", toks[0])
	}
	if toks[6].kind != tokNumber || toks[6].text != "42" {
		t.Errorf("last number = %v", toks[6])
	}
	for _, i := range []int{1, 2, 3, 4, 5} {
		if toks[i].kind != tokSymbol {
			t.Errorf("token %d = %v, want symbol", i, toks[i])
		}
	}
}

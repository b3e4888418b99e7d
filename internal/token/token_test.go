package token

import "testing"

func TestLookupKeywords(t *testing.T) {
	cases := map[string]Kind{
		"func": FUNC, "var": VAR, "shared": SHARED, "sem": SEM, "chan": CHAN,
		"if": IF, "else": ELSE, "while": WHILE, "for": FOR,
		"return": RETURN, "break": BREAK, "continue": CONTINUE,
		"spawn": SPAWN, "P": ACQUIRE, "V": RELEASE,
		"send": SEND, "recv": RECV, "print": PRINT,
		"true": TRUE, "false": FALSE, "int": INTTYPE, "bool": BOOLTYPE,
		"foo": IDENT, "Print": IDENT, "p": IDENT, "v": IDENT,
	}
	for lit, want := range cases {
		if got := Lookup(lit); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", lit, got, want)
		}
	}
}

// TestClassPredicates pins the kind classes' ranges; Lookup builds its
// keyword table from the keyword range.
func TestClassPredicates(t *testing.T) {
	in := func(k, beg, end Kind) bool { return beg < k && k < end }
	if !in(IDENT, literalBeg, literalEnd) || !in(INT, literalBeg, literalEnd) || !in(STRING, literalBeg, literalEnd) {
		t.Error("literal range wrong")
	}
	if !in(ADD, operatorBeg, operatorEnd) || !in(SEMICOLON, operatorBeg, operatorEnd) || !in(LBRACE, operatorBeg, operatorEnd) {
		t.Error("operator range wrong")
	}
	if !in(FUNC, keywordBeg, keywordEnd) || !in(RECV, keywordBeg, keywordEnd) {
		t.Error("keyword range wrong")
	}
	if in(FUNC, operatorBeg, operatorEnd) || in(ADD, keywordBeg, keywordEnd) || in(SEM, literalBeg, literalEnd) {
		t.Error("cross-class ranges wrong")
	}
}

func TestPrecedenceOrdering(t *testing.T) {
	// || < && < comparisons < additive < multiplicative.
	chains := [][]Kind{
		{LOR, LAND, EQL, ADD, MUL},
		{LOR, LAND, LSS, SUB, QUO},
		{LOR, LAND, GEQ, ADD, REM},
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			if chain[i-1].Precedence() >= chain[i].Precedence() {
				t.Errorf("%v (%d) should bind looser than %v (%d)",
					chain[i-1], chain[i-1].Precedence(), chain[i], chain[i].Precedence())
			}
		}
	}
	// Same-level groups.
	if ADD.Precedence() != SUB.Precedence() || MUL.Precedence() != REM.Precedence() {
		t.Error("same-level precedence mismatch")
	}
	// Non-binary tokens have the lowest precedence.
	for _, k := range []Kind{ASSIGN, NOT, LPAREN, IDENT, FUNC} {
		if k.Precedence() != LowestPrec {
			t.Errorf("%v precedence = %d, want %d", k, k.Precedence(), LowestPrec)
		}
	}
}

func TestStringSpellings(t *testing.T) {
	cases := map[Kind]string{
		ADD: "+", NEQ: "!=", LAND: "&&", SEMICOLON: ";",
		FUNC: "func", ACQUIRE: "P", RELEASE: "V",
		IDENT: "IDENT", EOF: "EOF",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind = %q", got)
	}
}

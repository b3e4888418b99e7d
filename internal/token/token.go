// Package token defines the lexical tokens of MPL, the small C-like parallel
// language compiled by PPD. MPL has integers, booleans, arrays, functions,
// processes (spawn), semaphores (P/V), and message channels (send/recv),
// which together cover every synchronization construct the PLDI '88 paper
// builds synchronization edges for.
package token

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// Token kinds. Literal and operator groups are delimited so the parser can
// range-check precedence tables.
const (
	ILLEGAL Kind = iota
	EOF
	COMMENT

	literalBeg
	IDENT  // foo
	INT    // 123
	STRING // "abc"
	literalEnd

	operatorBeg
	ADD // +
	SUB // -
	MUL // *
	QUO // /
	REM // %

	LAND // &&
	LOR  // ||
	NOT  // !

	EQL // ==
	NEQ // !=
	LSS // <
	LEQ // <=
	GTR // >
	GEQ // >=

	ASSIGN // =

	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACK    // [
	RBRACK    // ]
	COMMA     // ,
	SEMICOLON // ;
	operatorEnd

	keywordBeg
	FUNC     // func
	VAR      // var
	SHARED   // shared
	SEM      // sem
	CHAN     // chan
	IF       // if
	ELSE     // else
	WHILE    // while
	FOR      // for
	RETURN   // return
	BREAK    // break
	CONTINUE // continue
	SPAWN    // spawn
	ACQUIRE  // P
	RELEASE  // V
	SEND     // send
	RECV     // recv
	PRINT    // print
	TRUE     // true
	FALSE    // false
	INTTYPE  // int
	BOOLTYPE // bool
	keywordEnd
)

var names = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	COMMENT:   "COMMENT",
	IDENT:     "IDENT",
	INT:       "INT",
	STRING:    "STRING",
	ADD:       "+",
	SUB:       "-",
	MUL:       "*",
	QUO:       "/",
	REM:       "%",
	LAND:      "&&",
	LOR:       "||",
	NOT:       "!",
	EQL:       "==",
	NEQ:       "!=",
	LSS:       "<",
	LEQ:       "<=",
	GTR:       ">",
	GEQ:       ">=",
	ASSIGN:    "=",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	LBRACK:    "[",
	RBRACK:    "]",
	COMMA:     ",",
	SEMICOLON: ";",
	FUNC:      "func",
	VAR:       "var",
	SHARED:    "shared",
	SEM:       "sem",
	CHAN:      "chan",
	IF:        "if",
	ELSE:      "else",
	WHILE:     "while",
	FOR:       "for",
	RETURN:    "return",
	BREAK:     "break",
	CONTINUE:  "continue",
	SPAWN:     "spawn",
	ACQUIRE:   "P",
	RELEASE:   "V",
	SEND:      "send",
	RECV:      "recv",
	PRINT:     "print",
	TRUE:      "true",
	FALSE:     "false",
	INTTYPE:   "int",
	BOOLTYPE:  "bool",
}

// String returns the literal spelling for operators and keywords, or the
// class name for the rest.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := keywordBeg + 1; k < keywordEnd; k++ {
		m[names[k]] = k
	}
	return m
}()

// Lookup maps an identifier spelling to its keyword kind, or IDENT.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Precedence levels for binary operators; higher binds tighter. Non-binary
// tokens get LowestPrec.
const (
	LowestPrec  = 0
	highestPrec = 6
)

// Precedence returns the binary-operator precedence of k.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case EQL, NEQ, LSS, LEQ, GTR, GEQ:
		return 3
	case ADD, SUB:
		return 4
	case MUL, QUO, REM:
		return 5
	}
	return LowestPrec
}

// HighestPrec is the precedence of unary operators.
const HighestPrec = highestPrec

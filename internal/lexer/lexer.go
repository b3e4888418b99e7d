// Package lexer implements the hand-written scanner for MPL source text.
// It produces token streams consumed by the parser and records diagnostics
// for malformed input rather than aborting, so the parser can recover.
package lexer

import (
	"ppd/internal/source"
	"ppd/internal/token"
)

// Token is one scanned token: kind, literal text, and position.
type Token struct {
	Kind token.Kind
	Lit  string
	Pos  source.Pos
}

// Lexer scans an MPL source file.
type Lexer struct {
	file *source.File
	errs *source.ErrorList

	src    string
	offset int // current reading offset
	ch     byte
	atEOF  bool
}

// New returns a lexer over file, reporting problems to errs.
func New(file *source.File, errs *source.ErrorList) *Lexer {
	l := &Lexer{file: file, errs: errs, src: file.Content}
	l.advance()
	return l
}

func (l *Lexer) advance() {
	if l.offset >= len(l.src) {
		l.atEOF = true
		l.ch = 0
		return
	}
	l.ch = l.src[l.offset]
	l.offset++
}

// peek returns the next byte without consuming it, or 0 at EOF.
func (l *Lexer) peek() byte {
	if l.offset >= len(l.src) {
		return 0
	}
	return l.src[l.offset]
}

func (l *Lexer) errorf(pos source.Pos, format string, args ...any) {
	l.errs.Errorf(l.file.Position(pos), format, args...)
}

func isLetter(ch byte) bool {
	return 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || ch == '_'
}

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

// Next scans and returns the next token, skipping whitespace and comments.
func (l *Lexer) Next() Token {
	for !l.atEOF && (l.ch == ' ' || l.ch == '\t' || l.ch == '\n' || l.ch == '\r') {
		l.advance()
	}
	pos := l.file.Pos(l.offset - 1)
	if l.atEOF {
		return Token{Kind: token.EOF, Pos: l.file.Pos(len(l.src))}
	}

	ch := l.ch
	switch {
	case isLetter(ch):
		start := l.offset - 1
		for !l.atEOF && (isLetter(l.ch) || isDigit(l.ch)) {
			l.advance()
		}
		end := l.offset - 1
		if l.atEOF {
			end = len(l.src)
		}
		lit := l.src[start:end]
		return Token{Kind: token.Lookup(lit), Lit: lit, Pos: pos}

	case isDigit(ch):
		start := l.offset - 1
		for !l.atEOF && isDigit(l.ch) {
			l.advance()
		}
		end := l.offset - 1
		if l.atEOF {
			end = len(l.src)
		}
		return Token{Kind: token.INT, Lit: l.src[start:end], Pos: pos}

	case ch == '"':
		return l.scanString(pos)
	}

	l.advance() // consume ch
	mk := func(k token.Kind) Token { return Token{Kind: k, Lit: k.String(), Pos: pos} }

	switch ch {
	case '+':
		return mk(token.ADD)
	case '-':
		return mk(token.SUB)
	case '*':
		return mk(token.MUL)
	case '/':
		if !l.atEOF && l.ch == '/' {
			start := l.offset - 1
			for !l.atEOF && l.ch != '\n' {
				l.advance()
			}
			end := l.offset - 1
			if l.atEOF {
				end = len(l.src)
			}
			_ = l.src[start:end] // comments are skipped, not returned
			return l.Next()
		}
		if !l.atEOF && l.ch == '*' {
			l.scanBlockComment(pos)
			return l.Next()
		}
		return mk(token.QUO)
	case '%':
		return mk(token.REM)
	case '&':
		if !l.atEOF && l.ch == '&' {
			l.advance()
			return mk(token.LAND)
		}
		l.errorf(pos, "unexpected character %q (did you mean &&?)", ch)
		return Token{Kind: token.ILLEGAL, Lit: string(ch), Pos: pos}
	case '|':
		if !l.atEOF && l.ch == '|' {
			l.advance()
			return mk(token.LOR)
		}
		l.errorf(pos, "unexpected character %q (did you mean ||?)", ch)
		return Token{Kind: token.ILLEGAL, Lit: string(ch), Pos: pos}
	case '!':
		if !l.atEOF && l.ch == '=' {
			l.advance()
			return mk(token.NEQ)
		}
		return mk(token.NOT)
	case '=':
		if !l.atEOF && l.ch == '=' {
			l.advance()
			return mk(token.EQL)
		}
		return mk(token.ASSIGN)
	case '<':
		if !l.atEOF && l.ch == '=' {
			l.advance()
			return mk(token.LEQ)
		}
		return mk(token.LSS)
	case '>':
		if !l.atEOF && l.ch == '=' {
			l.advance()
			return mk(token.GEQ)
		}
		return mk(token.GTR)
	case '(':
		return mk(token.LPAREN)
	case ')':
		return mk(token.RPAREN)
	case '{':
		return mk(token.LBRACE)
	case '}':
		return mk(token.RBRACE)
	case '[':
		return mk(token.LBRACK)
	case ']':
		return mk(token.RBRACK)
	case ',':
		return mk(token.COMMA)
	case ';':
		return mk(token.SEMICOLON)
	}

	l.errorf(pos, "unexpected character %q", ch)
	return Token{Kind: token.ILLEGAL, Lit: string(ch), Pos: pos}
}

func (l *Lexer) scanString(pos source.Pos) Token {
	l.advance() // consume opening quote
	var buf []byte
	for {
		if l.atEOF || l.ch == '\n' {
			l.errorf(pos, "unterminated string literal")
			return Token{Kind: token.STRING, Lit: string(buf), Pos: pos}
		}
		if l.ch == '"' {
			l.advance()
			return Token{Kind: token.STRING, Lit: string(buf), Pos: pos}
		}
		if l.ch == '\\' {
			l.advance()
			if l.atEOF {
				l.errorf(pos, "unterminated string literal")
				return Token{Kind: token.STRING, Lit: string(buf), Pos: pos}
			}
			switch l.ch {
			case 'n':
				buf = append(buf, '\n')
			case 't':
				buf = append(buf, '\t')
			case '\\':
				buf = append(buf, '\\')
			case '"':
				buf = append(buf, '"')
			default:
				l.errorf(pos, "unknown escape \\%c", l.ch)
				buf = append(buf, l.ch)
			}
			l.advance()
			continue
		}
		buf = append(buf, l.ch)
		l.advance()
	}
}

func (l *Lexer) scanBlockComment(pos source.Pos) {
	l.advance() // consume '*'
	for {
		if l.atEOF {
			l.errorf(pos, "unterminated block comment")
			return
		}
		if l.ch == '*' && l.peek() == '/' {
			l.advance()
			l.advance()
			return
		}
		l.advance()
	}
}

// ScanAll scans the whole file into a slice ending with EOF. Convenient for
// tests and for the parser's lookahead buffer. MPL source runs 2.1 to 2.9
// bytes per token, so a slice of half the source length in tokens holds
// the whole stream without regrowing.
func ScanAll(file *source.File, errs *source.ErrorList) []Token {
	l := New(file, errs)
	toks := make([]Token, 0, len(file.Content)/2+1)
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}

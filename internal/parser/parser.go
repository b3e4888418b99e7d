// Package parser implements a recursive-descent parser for MPL with basic
// error recovery (synchronize on ';' and '}'). It assigns every statement a
// StmtID in source order; downstream analyses, bytecode, logs, and graphs
// all key on those IDs.
package parser

import (
	"ppd/internal/ast"
	"ppd/internal/lexer"
	"ppd/internal/source"
	"ppd/internal/token"
)

// Parser holds parsing state for one file.
type Parser struct {
	file *source.File
	errs *source.ErrorList
	toks []lexer.Token
	pos  int

	// The most numerous nodes come from slabs sized by the tokens that
	// make them: one identifier per IDENT, one literal per INT, at most
	// one binary expression per binary operator.
	idents   slab[ast.Ident]
	ints     slab[ast.IntLit]
	binaries slab[ast.BinaryExpr]

	prog   *ast.Program
	nextID ast.StmtID
}

// Parse scans and parses the file, returning the Program. Syntax errors are
// recorded in errs; the returned Program contains whatever was recoverable.
func Parse(file *source.File, errs *source.ErrorList) *ast.Program {
	p := &Parser{
		file:   file,
		errs:   errs,
		toks:   lexer.ScanAll(file, errs),
		prog:   &ast.Program{File: file},
		nextID: 1,
	}
	var nIdents, nInts, nBinaries int
	for _, t := range p.toks {
		switch {
		case t.Kind == token.IDENT:
			nIdents++
		case t.Kind == token.INT:
			nInts++
		case t.Kind.Precedence() > 0:
			nBinaries++
		}
	}
	p.idents = make(slab[ast.Ident], nIdents)
	p.ints = make(slab[ast.IntLit], nInts)
	p.binaries = make(slab[ast.BinaryExpr], nBinaries)
	p.parseProgram()
	p.prog.NumStmts = int(p.nextID) - 1
	return p.prog
}

// ParseString is a convenience wrapper for tests: parse source text directly.
func ParseString(name, src string, errs *source.ErrorList) *ast.Program {
	return Parse(source.NewFile(name, src), errs)
}

func (p *Parser) cur() lexer.Token { return p.toks[p.pos] }
func (p *Parser) peek() lexer.Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() lexer.Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) (lexer.Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return lexer.Token{}, false
}

func (p *Parser) expect(k token.Kind) lexer.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %q, found %q", k.String(), p.cur().Lit)
	return lexer.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(pos source.Pos, format string, args ...any) {
	p.errs.Errorf(p.file.Position(pos), format, args...)
}

// synchronize skips tokens until after the next ';' or before '}' so one
// syntax error does not cascade.
func (p *Parser) synchronize() {
	for !p.at(token.EOF) {
		if p.at(token.SEMICOLON) {
			p.next()
			return
		}
		if p.at(token.RBRACE) || p.at(token.FUNC) {
			return
		}
		p.next()
	}
}

// slab hands out nodes carved from one array, then heap nodes once it is
// used up (error recovery can make nodes no token spelled).
type slab[T any] []T

func (s *slab[T]) next() *T {
	if len(*s) == 0 {
		return new(T)
	}
	n := &(*s)[0]
	*s = (*s)[1:]
	return n
}

// ident makes the identifier node for t.
func (p *Parser) ident(t lexer.Token) *ast.Ident {
	p.prog.NumIdents++
	id := p.idents.next()
	*id = ast.Ident{Name: t.Lit, NamePos: t.Pos}
	return id
}

func (p *Parser) assignID(s interface{ SetID(ast.StmtID) }) {
	s.SetID(p.nextID)
	p.nextID++
	if st, ok := s.(ast.Stmt); ok {
		p.prog.RegisterStmt(st)
	}
}

// ---------------------------------------------------------------- top level

func (p *Parser) parseProgram() {
	for !p.at(token.EOF) {
		switch p.cur().Kind {
		case token.FUNC:
			f := p.parseFuncDecl()
			if f != nil {
				p.prog.Decls = append(p.prog.Decls, f)
				p.prog.Funcs = append(p.prog.Funcs, f)
			}
		case token.VAR, token.SHARED, token.SEM, token.CHAN:
			g := p.parseGlobalDecl()
			if g != nil {
				p.prog.Decls = append(p.prog.Decls, g)
				p.prog.Globals = append(p.prog.Globals, g)
			}
		default:
			p.errorf(p.cur().Pos, "expected declaration, found %q", p.cur().Lit)
			before := p.pos
			p.synchronize()
			if p.pos == before {
				// synchronize stops before '}' for statement recovery; at
				// top level that token can never start a declaration, so
				// skip it or we would loop forever.
				p.next()
			}
		}
	}
}

func (p *Parser) parseGlobalDecl() *ast.GlobalDecl {
	kw := p.next()
	nameTok := p.expect(token.IDENT)
	g := &ast.GlobalDecl{
		KwPos: kw.Pos,
		Kw:    kw.Kind,
		Name:  p.ident(nameTok),
	}
	switch kw.Kind {
	case token.VAR, token.SHARED:
		g.Type = ast.Type{Kind: ast.TypeInt}
		if _, ok := p.accept(token.LBRACK); ok {
			sz := p.expect(token.INT)
			p.expect(token.RBRACK)
			g.Type = ast.Type{Kind: ast.TypeArray, Len: atoi(sz.Lit)}
		}
		if _, ok := p.accept(token.ASSIGN); ok {
			g.Init = p.parseExpr()
		}
	case token.SEM:
		g.Type = ast.Type{Kind: ast.TypeSem}
		if _, ok := p.accept(token.ASSIGN); ok {
			g.Init = p.parseExpr()
		}
	case token.CHAN:
		g.Type = ast.Type{Kind: ast.TypeChan}
		if _, ok := p.accept(token.LBRACK); ok {
			sz := p.expect(token.INT)
			p.expect(token.RBRACK)
			g.Type.Len = atoi(sz.Lit)
		}
	}
	semi := p.expect(token.SEMICOLON)
	g.EndPos = semi.Pos + 1
	return g
}

func atoi(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		n = n*10 + int(s[i]-'0')
	}
	return n
}

func (p *Parser) parseType() ast.Type {
	switch p.cur().Kind {
	case token.INTTYPE:
		p.next()
		if _, ok := p.accept(token.LBRACK); ok {
			sz := p.expect(token.INT)
			p.expect(token.RBRACK)
			return ast.Type{Kind: ast.TypeArray, Len: atoi(sz.Lit)}
		}
		return ast.Type{Kind: ast.TypeInt}
	case token.BOOLTYPE:
		p.next()
		return ast.Type{Kind: ast.TypeBool}
	}
	p.errorf(p.cur().Pos, "expected type, found %q", p.cur().Lit)
	p.next()
	return ast.Type{Kind: ast.TypeInvalid}
}

func (p *Parser) parseFuncDecl() *ast.FuncDecl {
	kw := p.expect(token.FUNC)
	nameTok := p.expect(token.IDENT)
	f := &ast.FuncDecl{
		FuncPos: kw.Pos,
		Name:    p.ident(nameTok),
		Result:  ast.Type{Kind: ast.TypeVoid},
	}
	p.expect(token.LPAREN)
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		pn := p.expect(token.IDENT)
		pt := p.parseType()
		f.Params = append(f.Params, ast.Param{
			Name: p.ident(pn),
			Type: pt,
		})
		if _, ok := p.accept(token.COMMA); !ok {
			break
		}
	}
	p.expect(token.RPAREN)
	if p.at(token.INTTYPE) || p.at(token.BOOLTYPE) {
		f.Result = p.parseType()
	}
	f.Body = p.parseBlock()
	return f
}

// ---------------------------------------------------------------- statements

func (p *Parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBRACE)
	blk := &ast.BlockStmt{Lbrace: lb.Pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		before := p.pos
		s := p.parseStmt()
		if s != nil {
			blk.List = append(blk.List, s)
		}
		if p.pos == before { // no progress: skip a token to avoid livelock
			p.next()
		}
	}
	rb := p.expect(token.RBRACE)
	blk.Rbrace = rb.Pos
	return blk
}

func (p *Parser) parseStmt() ast.Stmt {
	switch p.cur().Kind {
	case token.VAR:
		return p.parseVarDeclStmt()
	case token.IF:
		return p.parseIfStmt()
	case token.WHILE:
		return p.parseWhileStmt()
	case token.FOR:
		return p.parseForStmt()
	case token.RETURN:
		return p.parseReturnStmt()
	case token.BREAK:
		kw := p.next()
		semi := p.expect(token.SEMICOLON)
		s := &ast.BreakStmt{KwPos: kw.Pos, EndPos: semi.Pos + 1}
		p.assignID(s)
		return s
	case token.CONTINUE:
		kw := p.next()
		semi := p.expect(token.SEMICOLON)
		s := &ast.ContinueStmt{KwPos: kw.Pos, EndPos: semi.Pos + 1}
		p.assignID(s)
		return s
	case token.SPAWN:
		return p.parseSpawnStmt()
	case token.ACQUIRE, token.RELEASE:
		return p.parseSemStmt()
	case token.SEND:
		return p.parseSendStmt()
	case token.PRINT:
		return p.parsePrintStmt()
	case token.LBRACE:
		return p.parseBlock()
	case token.IDENT:
		return p.parseAssignOrCall()
	case token.SEMICOLON:
		p.next() // empty statement
		return nil
	}
	p.errorf(p.cur().Pos, "expected statement, found %q", p.cur().Lit)
	p.synchronize()
	return nil
}

func (p *Parser) parseVarDeclStmt() ast.Stmt {
	kw := p.expect(token.VAR)
	nameTok := p.expect(token.IDENT)
	s := &ast.VarDeclStmt{
		VarPos: kw.Pos,
		Name:   p.ident(nameTok),
		Type:   ast.Type{Kind: ast.TypeInt},
	}
	if _, ok := p.accept(token.LBRACK); ok {
		sz := p.expect(token.INT)
		p.expect(token.RBRACK)
		s.Type = ast.Type{Kind: ast.TypeArray, Len: atoi(sz.Lit)}
	}
	if _, ok := p.accept(token.ASSIGN); ok {
		s.Init = p.parseExpr()
	}
	semi := p.expect(token.SEMICOLON)
	s.EndPos = semi.Pos + 1
	p.assignID(s)
	return s
}

func (p *Parser) parseIfStmt() ast.Stmt {
	kw := p.expect(token.IF)
	s := &ast.IfStmt{IfPos: kw.Pos}
	p.assignID(s) // predicate gets the ID before the branches
	p.expect(token.LPAREN)
	s.Cond = p.parseExpr()
	p.expect(token.RPAREN)
	s.Then = p.parseBlock()
	if _, ok := p.accept(token.ELSE); ok {
		if p.at(token.IF) {
			s.Else = p.parseIfStmt()
		} else {
			s.Else = p.parseBlock()
		}
	}
	s.EndPos = p.cur().Pos
	return s
}

func (p *Parser) parseWhileStmt() ast.Stmt {
	kw := p.expect(token.WHILE)
	s := &ast.WhileStmt{WhilePos: kw.Pos}
	p.assignID(s)
	p.expect(token.LPAREN)
	s.Cond = p.parseExpr()
	p.expect(token.RPAREN)
	s.Body = p.parseBlock()
	s.EndPos = p.cur().Pos
	return s
}

func (p *Parser) parseForStmt() ast.Stmt {
	kw := p.expect(token.FOR)
	s := &ast.ForStmt{ForPos: kw.Pos}
	p.assignID(s)
	p.expect(token.LPAREN)
	if !p.at(token.SEMICOLON) {
		if p.at(token.VAR) {
			s.Init = p.parseVarDeclStmt() // consumes its own ';'
		} else {
			s.Init = p.parseSimpleAssign()
			p.expect(token.SEMICOLON)
		}
	} else {
		p.expect(token.SEMICOLON)
	}
	if !p.at(token.SEMICOLON) {
		s.Cond = p.parseExpr()
	}
	p.expect(token.SEMICOLON)
	if !p.at(token.RPAREN) {
		s.Post = p.parseSimpleAssign()
	}
	p.expect(token.RPAREN)
	s.Body = p.parseBlock()
	s.EndPos = p.cur().Pos
	return s
}

// parseSimpleAssign parses `x = e` or `a[i] = e` without the trailing ';'.
func (p *Parser) parseSimpleAssign() ast.Stmt {
	nameTok := p.expect(token.IDENT)
	s := &ast.AssignStmt{LHS: p.ident(nameTok)}
	if _, ok := p.accept(token.LBRACK); ok {
		s.Index = p.parseExpr()
		p.expect(token.RBRACK)
	}
	p.expect(token.ASSIGN)
	s.RHS = p.parseExpr()
	s.EndPos = p.cur().Pos
	p.assignID(s)
	return s
}

func (p *Parser) parseReturnStmt() ast.Stmt {
	kw := p.expect(token.RETURN)
	s := &ast.ReturnStmt{RetPos: kw.Pos}
	if !p.at(token.SEMICOLON) {
		s.Result = p.parseExpr()
	}
	semi := p.expect(token.SEMICOLON)
	s.EndPos = semi.Pos + 1
	p.assignID(s)
	return s
}

func (p *Parser) parseSpawnStmt() ast.Stmt {
	kw := p.expect(token.SPAWN)
	nameTok := p.expect(token.IDENT)
	call := p.parseCallAfterName(p.ident(nameTok))
	semi := p.expect(token.SEMICOLON)
	s := &ast.SpawnStmt{SpawnPos: kw.Pos, Call: call, EndPos: semi.Pos + 1}
	p.assignID(s)
	return s
}

func (p *Parser) parseSemStmt() ast.Stmt {
	op := p.next() // P or V
	p.expect(token.LPAREN)
	nameTok := p.expect(token.IDENT)
	p.expect(token.RPAREN)
	semi := p.expect(token.SEMICOLON)
	s := &ast.SemStmt{
		Op:     op.Kind,
		OpPos:  op.Pos,
		Sem:    p.ident(nameTok),
		EndPos: semi.Pos + 1,
	}
	p.assignID(s)
	return s
}

func (p *Parser) parseSendStmt() ast.Stmt {
	kw := p.expect(token.SEND)
	p.expect(token.LPAREN)
	nameTok := p.expect(token.IDENT)
	p.expect(token.COMMA)
	val := p.parseExpr()
	p.expect(token.RPAREN)
	semi := p.expect(token.SEMICOLON)
	s := &ast.SendStmt{
		SendPos: kw.Pos,
		Chan:    p.ident(nameTok),
		Value:   val,
		EndPos:  semi.Pos + 1,
	}
	p.assignID(s)
	return s
}

func (p *Parser) parsePrintStmt() ast.Stmt {
	kw := p.expect(token.PRINT)
	p.expect(token.LPAREN)
	s := &ast.PrintStmt{PrintPos: kw.Pos}
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		s.Args = append(s.Args, p.parseExpr())
		if _, ok := p.accept(token.COMMA); !ok {
			break
		}
	}
	p.expect(token.RPAREN)
	semi := p.expect(token.SEMICOLON)
	s.EndPos = semi.Pos + 1
	p.assignID(s)
	return s
}

func (p *Parser) parseAssignOrCall() ast.Stmt {
	nameTok := p.expect(token.IDENT)
	id := p.ident(nameTok)
	if p.at(token.LPAREN) {
		call := p.parseCallAfterName(id)
		semi := p.expect(token.SEMICOLON)
		s := &ast.ExprStmt{X: call, EndPos: semi.Pos + 1}
		p.assignID(s)
		return s
	}
	s := &ast.AssignStmt{LHS: id}
	if _, ok := p.accept(token.LBRACK); ok {
		s.Index = p.parseExpr()
		p.expect(token.RBRACK)
	}
	p.expect(token.ASSIGN)
	s.RHS = p.parseExpr()
	semi := p.expect(token.SEMICOLON)
	s.EndPos = semi.Pos + 1
	p.assignID(s)
	return s
}

func (p *Parser) parseCallAfterName(fun *ast.Ident) *ast.CallExpr {
	lp := p.expect(token.LPAREN)
	call := &ast.CallExpr{Fun: fun, Lparen: lp.Pos}
	for !p.at(token.RPAREN) && !p.at(token.EOF) {
		call.Args = append(call.Args, p.parseExpr())
		if _, ok := p.accept(token.COMMA); !ok {
			break
		}
	}
	rp := p.expect(token.RPAREN)
	call.Rparen = rp.Pos
	return call
}

// ---------------------------------------------------------------- expressions

func (p *Parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	x := p.parseUnary()
	for {
		op := p.cur()
		prec := op.Kind.Precedence()
		if prec < minPrec {
			return x
		}
		p.next()
		y := p.parseBinary(prec + 1)
		b := p.binaries.next()
		*b = ast.BinaryExpr{Op: op.Kind, OpPos: op.Pos, X: x, Y: y}
		x = b
	}
}

func (p *Parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.SUB, token.NOT:
		op := p.next()
		x := p.parseUnary()
		return &ast.UnaryExpr{Op: op.Kind, OpPos: op.Pos, X: x}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() ast.Expr {
	switch p.cur().Kind {
	case token.INT:
		t := p.next()
		lit := p.ints.next()
		*lit = ast.IntLit{Value: int64(atoi(t.Lit)), LitPos: t.Pos, Text: t.Lit}
		return lit
	case token.TRUE:
		t := p.next()
		return &ast.BoolLit{Value: true, LitPos: t.Pos}
	case token.FALSE:
		t := p.next()
		return &ast.BoolLit{Value: false, LitPos: t.Pos}
	case token.STRING:
		t := p.next()
		return &ast.StringLit{Value: t.Lit, LitPos: t.Pos}
	case token.RECV:
		kw := p.next()
		p.expect(token.LPAREN)
		nameTok := p.expect(token.IDENT)
		rp := p.expect(token.RPAREN)
		return &ast.RecvExpr{
			RecvPos: kw.Pos,
			Chan:    p.ident(nameTok),
			Rparen:  rp.Pos,
		}
	case token.LPAREN:
		lp := p.next()
		x := p.parseExpr()
		rp := p.expect(token.RPAREN)
		return &ast.ParenExpr{Lparen: lp.Pos, X: x, Rparen: rp.Pos}
	case token.IDENT:
		nameTok := p.next()
		id := p.ident(nameTok)
		switch p.cur().Kind {
		case token.LPAREN:
			return p.parseCallAfterName(id)
		case token.LBRACK:
			p.next()
			idx := p.parseExpr()
			rb := p.expect(token.RBRACK)
			return &ast.IndexExpr{X: id, Lbrack: nameTok.Pos, Index: idx, Rbrack: rb.Pos}
		}
		return id
	}
	p.errorf(p.cur().Pos, "expected expression, found %q", p.cur().Lit)
	t := p.next()
	return &ast.IntLit{Value: 0, LitPos: t.Pos, Text: "0"}
}

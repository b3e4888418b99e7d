// Package ast defines the abstract syntax tree for MPL.
//
// Every statement node carries a StmtID assigned by the parser in source
// order. These IDs are the stable currency of the whole debugger: the static
// program dependence graph, the program database, bytecode instructions,
// log records, traces, and dynamic-graph nodes all refer to statements by
// StmtID, which is what lets the PPD Controller relate a run-time event back
// to the program text (the paper's "statement number" in Fig 4.1).
package ast

import (
	"ppd/internal/source"
	"ppd/internal/token"
)

// StmtID identifies a statement in source order, starting at 1. 0 means
// "no statement".
type StmtID int

// NoStmt is the zero StmtID.
const NoStmt StmtID = 0

// Node is implemented by every AST node.
type Node interface {
	Pos() source.Pos
	End() source.Pos
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	ID() StmtID
	stmtNode()
}

// Decl is implemented by top-level declarations.
type Decl interface {
	Node
	declNode()
}

// ---------------------------------------------------------------- Types

// TypeKind enumerates MPL's value types.
type TypeKind int

// MPL type kinds.
const (
	TypeInvalid TypeKind = iota
	TypeInt
	TypeBool
	TypeString // print-only literals
	TypeArray  // fixed-size int array
	TypeSem    // semaphore
	TypeChan   // message channel
	TypeVoid   // function with no result
)

func (k TypeKind) String() string {
	switch k {
	case TypeInt:
		return "int"
	case TypeBool:
		return "bool"
	case TypeString:
		return "string"
	case TypeArray:
		return "int[]"
	case TypeSem:
		return "sem"
	case TypeChan:
		return "chan"
	case TypeVoid:
		return "void"
	}
	return "invalid"
}

// Type describes an MPL type. Arrays carry a fixed length.
type Type struct {
	Kind TypeKind
	Len  int // for TypeArray
}

// ---------------------------------------------------------------- Expressions

// Ident is a use of a name.
type Ident struct {
	Name    string
	NamePos source.Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Value  int64
	LitPos source.Pos
	Text   string
}

// BoolLit is true or false.
type BoolLit struct {
	Value  bool
	LitPos source.Pos
}

// StringLit is a string literal (only valid as a print argument).
type StringLit struct {
	Value  string
	LitPos source.Pos
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Op    token.Kind
	OpPos source.Pos
	X     Expr
}

// BinaryExpr is x op y.
type BinaryExpr struct {
	Op    token.Kind
	OpPos source.Pos
	X, Y  Expr
}

// IndexExpr is a[i].
type IndexExpr struct {
	X      *Ident
	Lbrack source.Pos
	Index  Expr
	Rbrack source.Pos
}

// CallExpr is f(args) used as an expression (function call with a result).
type CallExpr struct {
	Fun    *Ident
	Lparen source.Pos
	Args   []Expr
	Rparen source.Pos
}

// RecvExpr is recv(ch): blocking receive yielding an int.
type RecvExpr struct {
	RecvPos source.Pos
	Chan    *Ident
	Rparen  source.Pos
}

// ParenExpr is (x).
type ParenExpr struct {
	Lparen source.Pos
	X      Expr
	Rparen source.Pos
}

func (e *Ident) Pos() source.Pos      { return e.NamePos }
func (e *Ident) End() source.Pos      { return e.NamePos + source.Pos(len(e.Name)) }
func (e *IntLit) Pos() source.Pos     { return e.LitPos }
func (e *IntLit) End() source.Pos     { return e.LitPos + source.Pos(len(e.Text)) }
func (e *BoolLit) Pos() source.Pos    { return e.LitPos }
func (e *BoolLit) End() source.Pos    { return e.LitPos + 4 }
func (e *StringLit) Pos() source.Pos  { return e.LitPos }
func (e *StringLit) End() source.Pos  { return e.LitPos + source.Pos(len(e.Value)+2) }
func (e *UnaryExpr) Pos() source.Pos  { return e.OpPos }
func (e *UnaryExpr) End() source.Pos  { return e.X.End() }
func (e *BinaryExpr) Pos() source.Pos { return e.X.Pos() }
func (e *BinaryExpr) End() source.Pos { return e.Y.End() }
func (e *IndexExpr) Pos() source.Pos  { return e.X.Pos() }
func (e *IndexExpr) End() source.Pos  { return e.Rbrack + 1 }
func (e *CallExpr) Pos() source.Pos   { return e.Fun.Pos() }
func (e *CallExpr) End() source.Pos   { return e.Rparen + 1 }
func (e *RecvExpr) Pos() source.Pos   { return e.RecvPos }
func (e *RecvExpr) End() source.Pos   { return e.Rparen + 1 }
func (e *ParenExpr) Pos() source.Pos  { return e.Lparen }
func (e *ParenExpr) End() source.Pos  { return e.Rparen + 1 }

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*StringLit) exprNode()  {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*RecvExpr) exprNode()   {}
func (*ParenExpr) exprNode()  {}

// ---------------------------------------------------------------- Statements

type stmtBase struct {
	id StmtID
}

func (s *stmtBase) ID() StmtID { return s.id }

// SetID assigns the statement's ID; called once by the parser.
func (s *stmtBase) SetID(id StmtID) { s.id = id }

// VarDeclStmt declares a local variable, optionally initialized.
type VarDeclStmt struct {
	stmtBase
	VarPos source.Pos
	Name   *Ident
	Type   Type
	Init   Expr // may be nil
	EndPos source.Pos
}

// AssignStmt assigns to a scalar variable or an array element.
type AssignStmt struct {
	stmtBase
	LHS    *Ident
	Index  Expr // non-nil for array element assignment
	RHS    Expr
	EndPos source.Pos
}

// IfStmt is a two-way conditional.
type IfStmt struct {
	stmtBase
	IfPos  source.Pos
	Cond   Expr
	Then   *BlockStmt
	Else   Stmt // *BlockStmt, *IfStmt, or nil
	EndPos source.Pos
}

// WhileStmt is a pre-test loop.
type WhileStmt struct {
	stmtBase
	WhilePos source.Pos
	Cond     Expr
	Body     *BlockStmt
	EndPos   source.Pos
}

// ForStmt is for(init; cond; post) body; each clause may be nil.
type ForStmt struct {
	stmtBase
	ForPos source.Pos
	Init   Stmt // *AssignStmt or *VarDeclStmt or nil
	Cond   Expr // nil means true
	Post   Stmt // *AssignStmt or nil
	Body   *BlockStmt
	EndPos source.Pos
}

// ReturnStmt exits the enclosing function.
type ReturnStmt struct {
	stmtBase
	RetPos source.Pos
	Result Expr // may be nil
	EndPos source.Pos
}

// BreakStmt exits the innermost loop.
type BreakStmt struct {
	stmtBase
	KwPos  source.Pos
	EndPos source.Pos
}

// ContinueStmt jumps to the innermost loop's post/condition.
type ContinueStmt struct {
	stmtBase
	KwPos  source.Pos
	EndPos source.Pos
}

// SpawnStmt creates a new process running fn(args).
type SpawnStmt struct {
	stmtBase
	SpawnPos source.Pos
	Call     *CallExpr
	EndPos   source.Pos
}

// SemStmt is a semaphore operation: P(s) or V(s).
type SemStmt struct {
	stmtBase
	Op     token.Kind // token.ACQUIRE or token.RELEASE
	OpPos  source.Pos
	Sem    *Ident
	EndPos source.Pos
}

// SendStmt sends the value of Value on channel Chan, blocking until a
// receiver takes it (rendezvous-style when the channel is unbuffered).
type SendStmt struct {
	stmtBase
	SendPos source.Pos
	Chan    *Ident
	Value   Expr
	EndPos  source.Pos
}

// ExprStmt is a call evaluated for its effects: f(args);
type ExprStmt struct {
	stmtBase
	X      Expr // *CallExpr or *RecvExpr
	EndPos source.Pos
}

// PrintStmt writes its arguments to the program's output stream.
type PrintStmt struct {
	stmtBase
	PrintPos source.Pos
	Args     []Expr
	EndPos   source.Pos
}

// BlockStmt is { stmts... }. Blocks have no ID of their own (they are
// lexical grouping, not events).
type BlockStmt struct {
	stmtBase
	Lbrace source.Pos
	List   []Stmt
	Rbrace source.Pos
}

func (s *VarDeclStmt) Pos() source.Pos  { return s.VarPos }
func (s *VarDeclStmt) End() source.Pos  { return s.EndPos }
func (s *AssignStmt) Pos() source.Pos   { return s.LHS.Pos() }
func (s *AssignStmt) End() source.Pos   { return s.EndPos }
func (s *IfStmt) Pos() source.Pos       { return s.IfPos }
func (s *IfStmt) End() source.Pos       { return s.EndPos }
func (s *WhileStmt) Pos() source.Pos    { return s.WhilePos }
func (s *WhileStmt) End() source.Pos    { return s.EndPos }
func (s *ForStmt) Pos() source.Pos      { return s.ForPos }
func (s *ForStmt) End() source.Pos      { return s.EndPos }
func (s *ReturnStmt) Pos() source.Pos   { return s.RetPos }
func (s *ReturnStmt) End() source.Pos   { return s.EndPos }
func (s *BreakStmt) Pos() source.Pos    { return s.KwPos }
func (s *BreakStmt) End() source.Pos    { return s.EndPos }
func (s *ContinueStmt) Pos() source.Pos { return s.KwPos }
func (s *ContinueStmt) End() source.Pos { return s.EndPos }
func (s *SpawnStmt) Pos() source.Pos    { return s.SpawnPos }
func (s *SpawnStmt) End() source.Pos    { return s.EndPos }
func (s *SemStmt) Pos() source.Pos      { return s.OpPos }
func (s *SemStmt) End() source.Pos      { return s.EndPos }
func (s *SendStmt) Pos() source.Pos     { return s.SendPos }
func (s *SendStmt) End() source.Pos     { return s.EndPos }
func (s *ExprStmt) Pos() source.Pos     { return s.X.Pos() }
func (s *ExprStmt) End() source.Pos     { return s.EndPos }
func (s *PrintStmt) Pos() source.Pos    { return s.PrintPos }
func (s *PrintStmt) End() source.Pos    { return s.EndPos }
func (s *BlockStmt) Pos() source.Pos    { return s.Lbrace }
func (s *BlockStmt) End() source.Pos    { return s.Rbrace + 1 }

func (*VarDeclStmt) stmtNode()  {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*SpawnStmt) stmtNode()    {}
func (*SemStmt) stmtNode()      {}
func (*SendStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*PrintStmt) stmtNode()    {}
func (*BlockStmt) stmtNode()    {}

// ---------------------------------------------------------------- Declarations

// Param is one function parameter.
type Param struct {
	Name *Ident
	Type Type
}

// FuncDecl declares a function.
type FuncDecl struct {
	FuncPos source.Pos
	Name    *Ident
	Params  []Param
	Result  Type // TypeVoid when absent
	Body    *BlockStmt
}

// GlobalDecl declares a global variable, shared variable, semaphore, or
// channel. Shared variables are the ones race detection tracks; in MPL all
// globals are visible to every process, but only `shared`-declared ones are
// intended for cross-process use (the checker warns on unsynchronized use of
// plain globals from spawned processes).
type GlobalDecl struct {
	KwPos  source.Pos
	Kw     token.Kind // VAR, SHARED, SEM, CHAN
	Name   *Ident
	Type   Type
	Init   Expr // optional initial value (VAR/SHARED) or capacity/initial count
	EndPos source.Pos
}

func (d *FuncDecl) Pos() source.Pos   { return d.FuncPos }
func (d *FuncDecl) End() source.Pos   { return d.Body.End() }
func (d *GlobalDecl) Pos() source.Pos { return d.KwPos }
func (d *GlobalDecl) End() source.Pos { return d.EndPos }

func (*FuncDecl) declNode()   {}
func (*GlobalDecl) declNode() {}

// Program is a parsed compilation unit.
type Program struct {
	File     *source.File
	Decls    []Decl
	Funcs    []*FuncDecl
	Globals  []*GlobalDecl
	NumStmts int // total number of StmtIDs assigned (max StmtID)

	// NumIdents is the number of identifier nodes the parser made: the
	// size of a table keyed by identifier.
	NumIdents int

	stmtByID []Stmt // indexed by StmtID
}

// Pos returns the start of the file.
func (p *Program) Pos() source.Pos { return 1 }

// End returns the end of the file.
func (p *Program) End() source.Pos { return source.Pos(len(p.File.Content) + 1) }

// RegisterStmt records a statement for ID lookup; called by the parser.
func (p *Program) RegisterStmt(s Stmt) {
	id := int(s.ID())
	if id < 0 {
		return
	}
	for len(p.stmtByID) <= id {
		p.stmtByID = append(p.stmtByID, nil)
	}
	p.stmtByID[id] = s
}

// StmtByID returns the statement with the given ID, or nil.
func (p *Program) StmtByID(id StmtID) Stmt {
	if id < 0 || int(id) >= len(p.stmtByID) {
		return nil
	}
	return p.stmtByID[id]
}

// FuncByName returns the declared function with the given name, or nil.
func (p *Program) FuncByName(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name.Name == name {
			return f
		}
	}
	return nil
}

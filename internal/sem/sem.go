// Package sem performs semantic analysis of an MPL program: name
// resolution, type checking, and variable numbering.
//
// Numbering is the load-bearing output. Every global variable receives a
// dense GlobalID and every local/parameter a per-function frame Slot; the
// data-flow analyses, interprocedural USED/DEFINED sets, prelog/postlog
// records, and race-detection READ/WRITE sets are all bitsets indexed by
// these numbers (the paper's §7 "bit-mask representations for sets of
// variables ... can have a large payoff").
//
// MPL runs on a shared-memory model: all globals live in one address space
// visible to every process, exactly like the paper's SMMP target. The
// `shared` keyword is a documentation synonym for `var` at global scope;
// race detection tracks every global scalar and array.
package sem

import (
	"ppd/internal/ast"
	"ppd/internal/source"
	"ppd/internal/token"
)

// SymKind classifies a symbol.
type SymKind int

// Symbol kinds.
const (
	SymGlobal SymKind = iota // global int or array (shared memory)
	SymSem                   // semaphore
	SymChan                  // message channel
	SymParam                 // function parameter
	SymLocal                 // function local
	SymFunc                  // function
)

func (k SymKind) String() string {
	switch k {
	case SymGlobal:
		return "global"
	case SymSem:
		return "sem"
	case SymChan:
		return "chan"
	case SymParam:
		return "param"
	case SymLocal:
		return "local"
	case SymFunc:
		return "func"
	}
	return "?"
}

// Symbol is one named entity.
type Symbol struct {
	Name     string
	Kind     SymKind
	Type     ast.Type
	GlobalID int       // dense index among all globals (vars, sems, chans); -1 otherwise
	Slot     int       // frame slot for params/locals; -1 otherwise
	Fn       *FuncInfo // for SymFunc
	DeclPos  source.Pos
}

// IsShared reports whether the symbol is a shared-memory variable (a global
// int or array) — the class of variables race detection tracks.
func (s *Symbol) IsShared() bool { return s.Kind == SymGlobal }

// FuncInfo aggregates per-function semantic results.
type FuncInfo struct {
	Decl     *ast.FuncDecl
	Sym      *Symbol
	Index    int       // declaration order
	Params   []*Symbol // in order; slots 0..len-1
	Locals   []*Symbol // params first, then locals, in slot order
	NumSlots int
}

// Name returns the function's name.
func (f *FuncInfo) Name() string { return f.Decl.Name.Name }

// Info is the result of Check: every resolution and typing fact later
// phases need.
type Info struct {
	Prog     *ast.Program
	Globals  []*Symbol // indexed by GlobalID
	Funcs    map[string]*FuncInfo
	FuncList []*FuncInfo
	Uses     map[*ast.Ident]*Symbol // every resolved identifier use
	Main     *FuncInfo

	// EnclosingFunc maps each statement to the function containing it.
	EnclosingFunc map[ast.StmtID]*FuncInfo
}

// NumGlobals returns the size of the global index space.
func (in *Info) NumGlobals() int { return len(in.Globals) }

// SharedIDs returns the GlobalIDs of all shared-memory variables (excluding
// semaphores and channels), in increasing order.
func (in *Info) SharedIDs() []int {
	var ids []int
	for _, g := range in.Globals {
		if g.IsShared() {
			ids = append(ids, g.GlobalID)
		}
	}
	return ids
}

// GlobalByName returns the global symbol with the given name, or nil.
func (in *Info) GlobalByName(name string) *Symbol {
	for _, g := range in.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

type checker struct {
	info *Info
	errs *source.ErrorList
	file *source.File

	globals map[string]*Symbol // first declaration of each global name
	fn      *FuncInfo
	scopes  []map[string]*Symbol // scopes[len:cap] are emptied maps for reuse
	loop    int                  // loop nesting depth
	syms    []Symbol             // slab the next local symbols come from
}

// Check resolves and type-checks the program. Diagnostics go to errs; the
// returned Info is valid to the extent the program was.
func Check(prog *ast.Program, errs *source.ErrorList) *Info {
	c := &checker{
		info: &Info{
			Prog:          prog,
			Funcs:         make(map[string]*FuncInfo, len(prog.Funcs)),
			Uses:          make(map[*ast.Ident]*Symbol, prog.NumIdents),
			EnclosingFunc: make(map[ast.StmtID]*FuncInfo, prog.NumStmts),
		},
		errs: errs,
		file: prog.File,
	}
	c.collectGlobals()
	c.collectFuncs()
	for _, f := range c.info.FuncList {
		c.checkFunc(f)
	}
	if m, ok := c.info.Funcs["main"]; ok {
		c.info.Main = m
		if len(m.Decl.Params) != 0 {
			c.errorf(m.Decl.FuncPos, "main must take no parameters")
		}
	} else {
		c.errorf(source.NoPos, "program has no main function")
	}
	return c.info
}

func (c *checker) errorf(pos source.Pos, format string, args ...any) {
	c.errs.Errorf(c.file.Position(pos), format, args...)
}

func (c *checker) collectGlobals() {
	decls := c.info.Prog.Globals
	c.globals = make(map[string]*Symbol, len(decls))
	syms := make([]Symbol, len(decls))
	for i, g := range decls {
		if c.globals[g.Name.Name] != nil {
			c.errorf(g.Name.NamePos, "duplicate global %q", g.Name.Name)
			continue
		}
		sym := &syms[i]
		*sym = Symbol{
			Name:     g.Name.Name,
			Type:     g.Type,
			GlobalID: len(c.info.Globals),
			Slot:     -1,
			DeclPos:  g.Name.NamePos,
		}
		c.globals[sym.Name] = sym
		switch g.Kw {
		case token.VAR, token.SHARED:
			sym.Kind = SymGlobal
		case token.SEM:
			sym.Kind = SymSem
		case token.CHAN:
			sym.Kind = SymChan
		}
		c.info.Globals = append(c.info.Globals, sym)
		c.info.Uses[g.Name] = sym
		if g.Init != nil {
			t := c.checkExpr(g.Init)
			if sym.Kind == SymGlobal && sym.Type.Kind == ast.TypeInt && t.Kind != ast.TypeInt && t.Kind != ast.TypeInvalid {
				c.errorf(g.Init.Pos(), "global %q initializer must be int, got %s", sym.Name, t.Kind)
			}
			if sym.Kind == SymSem && t.Kind != ast.TypeInt && t.Kind != ast.TypeInvalid {
				c.errorf(g.Init.Pos(), "semaphore %q initial count must be int, got %s", sym.Name, t.Kind)
			}
		}
	}
}

func (c *checker) collectFuncs() {
	for i, f := range c.info.Prog.Funcs {
		if _, dup := c.info.Funcs[f.Name.Name]; dup {
			c.errorf(f.Name.NamePos, "duplicate function %q", f.Name.Name)
			continue
		}
		if c.globals[f.Name.Name] != nil {
			c.errorf(f.Name.NamePos, "%q declared as both global and function", f.Name.Name)
		}
		fi := &FuncInfo{Decl: f, Index: i}
		fi.Sym = &Symbol{
			Name:     f.Name.Name,
			Kind:     SymFunc,
			Type:     f.Result,
			GlobalID: -1,
			Slot:     -1,
			Fn:       fi,
			DeclPos:  f.Name.NamePos,
		}
		c.info.Funcs[f.Name.Name] = fi
		c.info.FuncList = append(c.info.FuncList, fi)
		c.info.Uses[f.Name] = fi.Sym
	}
}

// pushScope opens a scope, reusing a map an earlier scope at this depth
// emptied.
func (c *checker) pushScope() {
	if n := len(c.scopes); n < cap(c.scopes) && c.scopes[:n+1][n] != nil {
		c.scopes = c.scopes[:n+1]
		return
	}
	c.scopes = append(c.scopes, make(map[string]*Symbol))
}

func (c *checker) popScope() {
	n := len(c.scopes) - 1
	clear(c.scopes[n])
	c.scopes = c.scopes[:n]
}

func (c *checker) declareLocal(id *ast.Ident, kind SymKind, t ast.Type) *Symbol {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[id.Name]; dup {
		c.errorf(id.NamePos, "duplicate declaration of %q", id.Name)
	}
	if len(c.syms) == 0 {
		c.syms = make([]Symbol, 16)
	}
	sym := &c.syms[0]
	c.syms = c.syms[1:]
	*sym = Symbol{
		Name:     id.Name,
		Kind:     kind,
		Type:     t,
		GlobalID: -1,
		Slot:     c.fn.NumSlots,
		DeclPos:  id.NamePos,
	}
	c.fn.NumSlots++
	c.fn.Locals = append(c.fn.Locals, sym)
	top[id.Name] = sym
	c.info.Uses[id] = sym
	return sym
}

func (c *checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if g := c.globals[name]; g != nil {
		return g
	}
	if f, ok := c.info.Funcs[name]; ok {
		return f.Sym
	}
	return nil
}

func (c *checker) checkFunc(f *FuncInfo) {
	c.fn = f
	c.pushScope()
	for _, p := range f.Decl.Params {
		sym := c.declareLocal(p.Name, SymParam, p.Type)
		f.Params = append(f.Params, sym)
	}
	c.checkBlock(f.Decl.Body)
	c.popScope()
	c.fn = nil
}

func (c *checker) checkBlock(b *ast.BlockStmt) {
	c.pushScope()
	for _, s := range b.List {
		c.checkStmt(s)
	}
	c.popScope()
}

func (c *checker) markStmt(s ast.Stmt) {
	if s.ID() != ast.NoStmt {
		c.info.EnclosingFunc[s.ID()] = c.fn
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.VarDeclStmt:
		c.markStmt(s)
		if s.Init != nil {
			t := c.checkExpr(s.Init)
			if s.Type.Kind == ast.TypeArray {
				c.errorf(s.Init.Pos(), "array variable %q cannot have a scalar initializer", s.Name.Name)
			} else {
				// Local declarations infer int or bool from the initializer.
				switch t.Kind {
				case ast.TypeInt, ast.TypeBool:
					s.Type = ast.Type{Kind: t.Kind}
				case ast.TypeInvalid:
					// already reported
				default:
					c.errorf(s.Init.Pos(), "cannot initialize variable %q with %s", s.Name.Name, t.Kind)
				}
			}
		}
		c.declareLocal(s.Name, SymLocal, s.Type)

	case *ast.AssignStmt:
		c.markStmt(s)
		sym := c.resolve(s.LHS)
		if sym == nil {
			// resolve already reported
		} else if sym.Kind == SymFunc || sym.Kind == SymSem || sym.Kind == SymChan {
			c.errorf(s.LHS.NamePos, "cannot assign to %s %q", sym.Kind, sym.Name)
		}
		if s.Index != nil {
			if sym != nil && sym.Type.Kind != ast.TypeArray {
				c.errorf(s.LHS.NamePos, "%q is not an array", s.LHS.Name)
			}
			it := c.checkExpr(s.Index)
			if it.Kind != ast.TypeInt && it.Kind != ast.TypeInvalid {
				c.errorf(s.Index.Pos(), "array index must be int, got %s", it.Kind)
			}
		} else if sym != nil && sym.Type.Kind == ast.TypeArray {
			c.errorf(s.LHS.NamePos, "cannot assign whole array %q", sym.Name)
		}
		rt := c.checkExpr(s.RHS)
		if sym != nil && sym.Type.Kind == ast.TypeBool {
			if rt.Kind != ast.TypeBool && rt.Kind != ast.TypeInvalid {
				c.errorf(s.RHS.Pos(), "cannot assign %s to bool variable %q", rt.Kind, sym.Name)
			}
		} else if rt.Kind != ast.TypeInt && rt.Kind != ast.TypeInvalid {
			c.errorf(s.RHS.Pos(), "cannot assign %s value to %q", rt.Kind, s.LHS.Name)
		}

	case *ast.IfStmt:
		c.markStmt(s)
		c.checkCond(s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkStmt(s.Else)
		}

	case *ast.WhileStmt:
		c.markStmt(s)
		c.checkCond(s.Cond)
		c.loop++
		c.checkBlock(s.Body)
		c.loop--

	case *ast.ForStmt:
		c.markStmt(s)
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.loop++
		c.checkBlock(s.Body)
		c.loop--
		c.popScope()

	case *ast.ReturnStmt:
		c.markStmt(s)
		want := c.fn.Decl.Result
		if s.Result == nil {
			if want.Kind != ast.TypeVoid {
				c.errorf(s.RetPos, "function %q must return a %s value", c.fn.Name(), want.Kind)
			}
		} else {
			got := c.checkExpr(s.Result)
			if want.Kind == ast.TypeVoid {
				c.errorf(s.Result.Pos(), "function %q returns no value", c.fn.Name())
			} else if got.Kind != want.Kind && got.Kind != ast.TypeInvalid {
				c.errorf(s.Result.Pos(), "function %q returns %s, got %s", c.fn.Name(), want.Kind, got.Kind)
			}
		}

	case *ast.BreakStmt:
		c.markStmt(s)
		if c.loop == 0 {
			c.errorf(s.KwPos, "break outside loop")
		}
	case *ast.ContinueStmt:
		c.markStmt(s)
		if c.loop == 0 {
			c.errorf(s.KwPos, "continue outside loop")
		}

	case *ast.SpawnStmt:
		c.markStmt(s)
		c.checkCall(s.Call, true)

	case *ast.SemStmt:
		c.markStmt(s)
		sym := c.resolve(s.Sem)
		if sym != nil && sym.Kind != SymSem {
			c.errorf(s.Sem.NamePos, "%q is not a semaphore", s.Sem.Name)
		}

	case *ast.SendStmt:
		c.markStmt(s)
		sym := c.resolve(s.Chan)
		if sym != nil && sym.Kind != SymChan {
			c.errorf(s.Chan.NamePos, "%q is not a channel", s.Chan.Name)
		}
		t := c.checkExpr(s.Value)
		if t.Kind != ast.TypeInt && t.Kind != ast.TypeInvalid {
			c.errorf(s.Value.Pos(), "send value must be int, got %s", t.Kind)
		}

	case *ast.ExprStmt:
		c.markStmt(s)
		switch x := s.X.(type) {
		case *ast.CallExpr:
			c.checkCall(x, false)
		case *ast.RecvExpr:
			c.checkExpr(x)
		default:
			c.errorf(s.X.Pos(), "expression statement must be a call or recv")
		}

	case *ast.PrintStmt:
		c.markStmt(s)
		for _, a := range s.Args {
			c.checkExpr(a)
		}

	case *ast.BlockStmt:
		c.checkBlock(s)
	}
}

func (c *checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e)
	if t.Kind != ast.TypeBool && t.Kind != ast.TypeInvalid {
		c.errorf(e.Pos(), "condition must be bool, got %s", t.Kind)
	}
}

func (c *checker) resolve(id *ast.Ident) *Symbol {
	sym := c.lookup(id.Name)
	if sym == nil {
		c.errorf(id.NamePos, "undeclared identifier %q", id.Name)
		return nil
	}
	c.info.Uses[id] = sym
	return sym
}

func (c *checker) checkCall(call *ast.CallExpr, spawn bool) ast.Type {
	fi, ok := c.info.Funcs[call.Fun.Name]
	if !ok {
		c.errorf(call.Fun.NamePos, "call of undeclared function %q", call.Fun.Name)
		for _, a := range call.Args {
			c.checkExpr(a)
		}
		return ast.Type{Kind: ast.TypeInvalid}
	}
	c.info.Uses[call.Fun] = fi.Sym
	if len(call.Args) != len(fi.Decl.Params) {
		c.errorf(call.Fun.NamePos, "%q takes %d argument(s), got %d",
			fi.Name(), len(fi.Decl.Params), len(call.Args))
	}
	for i, a := range call.Args {
		t := c.checkExpr(a)
		if i < len(fi.Decl.Params) {
			want := fi.Decl.Params[i].Type
			if t.Kind != want.Kind && t.Kind != ast.TypeInvalid {
				c.errorf(a.Pos(), "argument %d of %q must be %s, got %s",
					i+1, fi.Name(), want.Kind, t.Kind)
			}
		}
	}
	if spawn && fi.Decl.Result.Kind != ast.TypeVoid {
		c.errs.Warnf(c.file.Position(call.Fun.NamePos),
			"spawned function %q returns a value that is discarded", fi.Name())
	}
	return fi.Decl.Result
}

func (c *checker) checkExpr(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return ast.Type{Kind: ast.TypeInt}
	case *ast.BoolLit:
		return ast.Type{Kind: ast.TypeBool}
	case *ast.StringLit:
		return ast.Type{Kind: ast.TypeString}
	case *ast.Ident:
		sym := c.resolve(e)
		if sym == nil {
			return ast.Type{Kind: ast.TypeInvalid}
		}
		switch sym.Kind {
		case SymFunc:
			c.errorf(e.NamePos, "function %q used as a value", e.Name)
			return ast.Type{Kind: ast.TypeInvalid}
		case SymSem, SymChan:
			c.errorf(e.NamePos, "%s %q used as a value", sym.Kind, e.Name)
			return ast.Type{Kind: ast.TypeInvalid}
		}
		if sym.Type.Kind == ast.TypeArray {
			c.errorf(e.NamePos, "array %q used without index", e.Name)
			return ast.Type{Kind: ast.TypeInvalid}
		}
		return sym.Type
	case *ast.UnaryExpr:
		t := c.checkExpr(e.X)
		switch e.Op {
		case token.SUB:
			if t.Kind != ast.TypeInt && t.Kind != ast.TypeInvalid {
				c.errorf(e.X.Pos(), "operand of - must be int, got %s", t.Kind)
			}
			return ast.Type{Kind: ast.TypeInt}
		case token.NOT:
			if t.Kind != ast.TypeBool && t.Kind != ast.TypeInvalid {
				c.errorf(e.X.Pos(), "operand of ! must be bool, got %s", t.Kind)
			}
			return ast.Type{Kind: ast.TypeBool}
		}
		return ast.Type{Kind: ast.TypeInvalid}
	case *ast.BinaryExpr:
		xt := c.checkExpr(e.X)
		yt := c.checkExpr(e.Y)
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
			c.wantInt(e.X, xt)
			c.wantInt(e.Y, yt)
			return ast.Type{Kind: ast.TypeInt}
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			c.wantInt(e.X, xt)
			c.wantInt(e.Y, yt)
			return ast.Type{Kind: ast.TypeBool}
		case token.EQL, token.NEQ:
			if xt.Kind != yt.Kind && xt.Kind != ast.TypeInvalid && yt.Kind != ast.TypeInvalid {
				c.errorf(e.OpPos, "mismatched operands of %s: %s vs %s", e.Op, xt.Kind, yt.Kind)
			}
			return ast.Type{Kind: ast.TypeBool}
		case token.LAND, token.LOR:
			c.wantBool(e.X, xt)
			c.wantBool(e.Y, yt)
			return ast.Type{Kind: ast.TypeBool}
		}
		return ast.Type{Kind: ast.TypeInvalid}
	case *ast.IndexExpr:
		sym := c.resolve(e.X)
		if sym != nil && sym.Type.Kind != ast.TypeArray {
			c.errorf(e.X.NamePos, "%q is not an array", e.X.Name)
		}
		it := c.checkExpr(e.Index)
		if it.Kind != ast.TypeInt && it.Kind != ast.TypeInvalid {
			c.errorf(e.Index.Pos(), "array index must be int, got %s", it.Kind)
		}
		return ast.Type{Kind: ast.TypeInt}
	case *ast.CallExpr:
		t := c.checkCall(e, false)
		if t.Kind == ast.TypeVoid {
			c.errorf(e.Fun.NamePos, "void function %q used as a value", e.Fun.Name)
			return ast.Type{Kind: ast.TypeInvalid}
		}
		return t
	case *ast.RecvExpr:
		sym := c.resolve(e.Chan)
		if sym != nil && sym.Kind != SymChan {
			c.errorf(e.Chan.NamePos, "%q is not a channel", e.Chan.Name)
		}
		return ast.Type{Kind: ast.TypeInt}
	case *ast.ParenExpr:
		return c.checkExpr(e.X)
	}
	return ast.Type{Kind: ast.TypeInvalid}
}

func (c *checker) wantInt(e ast.Expr, t ast.Type) {
	if t.Kind != ast.TypeInt && t.Kind != ast.TypeInvalid {
		c.errorf(e.Pos(), "operand must be int, got %s", t.Kind)
	}
}

func (c *checker) wantBool(e ast.Expr, t ast.Type) {
	if t.Kind != ast.TypeBool && t.Kind != ast.TypeInvalid {
		c.errorf(e.Pos(), "operand must be bool, got %s", t.Kind)
	}
}

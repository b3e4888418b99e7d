package dataflow

import (
	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/sem"
	"ppd/internal/token"
)

// UseDef holds the per-statement variable effects used by reaching
// definitions and by the static PDG.
type UseDef struct {
	Use *bitset.Set // variables whose value may be read
	Def *bitset.Set // variables that may be written
	// Kill marks definite (strong) definitions: a scalar assignment kills
	// prior definitions of the same variable; array-element writes and
	// callee may-writes do not.
	Kill *bitset.Set
	// Calls lists the functions invoked anywhere in the statement, in
	// evaluation order. Their interprocedural effects are folded in by
	// ApplyCallEffects.
	Calls []string
}

// CallEffects supplies the interprocedural USED/DEFINED global sets of a
// callee (over GlobalIDs). Provided by package interproc; nil means calls
// are treated as having no global effects.
type CallEffects func(callee string) (used, defined *bitset.Set)

// ComputeUseDef builds the direct (intraprocedural) UseDef for every
// statement of the function, keyed by StmtID. numStmts, the function's
// statement count (blocks excluded), sizes the result so that its facts
// come from one slab; a smaller count only costs more allocations.
func ComputeUseDef(space *Space, numStmts int) map[ast.StmtID]*UseDef {
	c := &udCollector{
		space: space,
		out:   make(map[ast.StmtID]*UseDef, numStmts),
		uds:   make([]UseDef, numStmts),
		sets:  bitset.NewSlab(space.Size(), 3*numStmts),
	}
	c.block(space.Fn.Decl.Body)
	return c.out
}

type udCollector struct {
	space *Space
	out   map[ast.StmtID]*UseDef
	uds   []UseDef // slab the next facts come from
	sets  *bitset.Slab
}

func (c *udCollector) fresh(id ast.StmtID) *UseDef {
	var ud *UseDef
	if len(c.uds) > 0 {
		ud, c.uds = &c.uds[0], c.uds[1:]
	} else {
		ud = new(UseDef)
	}
	ud.Use, ud.Def, ud.Kill = c.sets.New(), c.sets.New(), c.sets.New()
	c.out[id] = ud
	return ud
}

func (c *udCollector) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		c.stmt(s)
	}
}

func (c *udCollector) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	switch s := s.(type) {
	case *ast.VarDeclStmt:
		ud := c.fresh(s.ID())
		if s.Init != nil {
			c.expr(ud, s.Init)
		}
		if sym := c.space.Info.Uses[s.Name]; sym != nil {
			idx := c.space.Index(sym)
			ud.Def.Add(idx)
			ud.Kill.Add(idx)
		}

	case *ast.AssignStmt:
		ud := c.fresh(s.ID())
		c.expr(ud, s.RHS)
		sym := c.space.Info.Uses[s.LHS]
		if sym == nil {
			return
		}
		idx := c.space.Index(sym)
		if s.Index != nil {
			c.expr(ud, s.Index)
			// a[i] = x: may-def of a, no kill, and the untouched elements
			// survive, so the array is also a use.
			ud.Def.Add(idx)
			ud.Use.Add(idx)
		} else {
			ud.Def.Add(idx)
			ud.Kill.Add(idx)
		}

	case *ast.IfStmt:
		ud := c.fresh(s.ID())
		c.expr(ud, s.Cond)
		c.block(s.Then)
		if s.Else != nil {
			c.stmt(s.Else)
		}

	case *ast.WhileStmt:
		ud := c.fresh(s.ID())
		c.expr(ud, s.Cond)
		c.block(s.Body)

	case *ast.ForStmt:
		ud := c.fresh(s.ID())
		if s.Init != nil {
			c.stmt(s.Init)
		}
		if s.Cond != nil {
			c.expr(ud, s.Cond)
		}
		if s.Post != nil {
			c.stmt(s.Post)
		}
		c.block(s.Body)

	case *ast.ReturnStmt:
		ud := c.fresh(s.ID())
		if s.Result != nil {
			c.expr(ud, s.Result)
		}

	case *ast.BreakStmt:
		c.fresh(s.ID())
	case *ast.ContinueStmt:
		c.fresh(s.ID())

	case *ast.SpawnStmt:
		ud := c.fresh(s.ID())
		for _, a := range s.Call.Args {
			c.expr(ud, a)
		}
		// The spawned function runs in another process; its effects are not
		// local data flow. (Cross-process flow is the parallel graph's job.)

	case *ast.SemStmt:
		c.fresh(s.ID())

	case *ast.SendStmt:
		ud := c.fresh(s.ID())
		c.expr(ud, s.Value)

	case *ast.ExprStmt:
		ud := c.fresh(s.ID())
		c.expr(ud, s.X)

	case *ast.PrintStmt:
		ud := c.fresh(s.ID())
		for _, a := range s.Args {
			c.expr(ud, a)
		}

	case *ast.BlockStmt:
		c.block(s)
	}
}

func (c *udCollector) expr(ud *UseDef, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		if sym := c.space.Info.Uses[e]; sym != nil {
			if idx := c.space.Index(sym); idx >= 0 && sym.Kind != sem.SymFunc &&
				sym.Kind != sem.SymSem && sym.Kind != sem.SymChan {
				ud.Use.Add(idx)
			}
		}
	case *ast.IndexExpr:
		if sym := c.space.Info.Uses[e.X]; sym != nil {
			if idx := c.space.Index(sym); idx >= 0 {
				ud.Use.Add(idx)
			}
		}
		c.expr(ud, e.Index)
	case *ast.UnaryExpr:
		c.expr(ud, e.X)
	case *ast.BinaryExpr:
		c.expr(ud, e.X)
		c.expr(ud, e.Y)
	case *ast.CallExpr:
		for _, a := range e.Args {
			c.expr(ud, a)
		}
		ud.Calls = append(ud.Calls, e.Fun.Name)
	case *ast.RecvExpr:
		// The received value arrives from another process; no local use.
	case *ast.ParenExpr:
		c.expr(ud, e.X)
	case *ast.IntLit, *ast.BoolLit, *ast.StringLit:
	}
}

// unaryOK silences the unused-import guard for token in case the switch
// above changes; SemStmt ops are not data effects.
var _ = token.ACQUIRE

// ApplyCallEffects folds each callee's interprocedural USED/DEFINED global
// sets into the direct UseDef sets. Callee may-writes define but do not
// kill.
func ApplyCallEffects(space *Space, uds map[ast.StmtID]*UseDef, effects CallEffects) {
	if effects == nil {
		return
	}
	for _, ud := range uds {
		for _, callee := range ud.Calls {
			used, defined := effects(callee)
			if used != nil {
				space.InjectGlobals(ud.Use, used)
			}
			if defined != nil {
				space.InjectGlobals(ud.Def, defined)
			}
		}
	}
}

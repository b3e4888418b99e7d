package ast

// Inspect traverses the subtree rooted at node in depth-first order, calling
// f for each node. If f returns false, children of the node are skipped.
// Nil children are not visited.
func Inspect(node Node, f func(Node) bool) {
	if node == nil || !f(node) {
		return
	}
	switch n := node.(type) {
	case *Ident, *IntLit, *BoolLit, *StringLit:
		// leaves
	case *UnaryExpr:
		Inspect(n.X, f)
	case *BinaryExpr:
		Inspect(n.X, f)
		Inspect(n.Y, f)
	case *IndexExpr:
		Inspect(n.X, f)
		Inspect(n.Index, f)
	case *CallExpr:
		Inspect(n.Fun, f)
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *RecvExpr:
		Inspect(n.Chan, f)
	case *ParenExpr:
		Inspect(n.X, f)

	case *VarDeclStmt:
		Inspect(n.Name, f)
		if n.Init != nil {
			Inspect(n.Init, f)
		}
	case *AssignStmt:
		Inspect(n.LHS, f)
		if n.Index != nil {
			Inspect(n.Index, f)
		}
		Inspect(n.RHS, f)
	case *IfStmt:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		if n.Else != nil {
			Inspect(n.Else, f)
		}
	case *WhileStmt:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *ForStmt:
		if n.Init != nil {
			Inspect(n.Init, f)
		}
		if n.Cond != nil {
			Inspect(n.Cond, f)
		}
		if n.Post != nil {
			Inspect(n.Post, f)
		}
		Inspect(n.Body, f)
	case *ReturnStmt:
		if n.Result != nil {
			Inspect(n.Result, f)
		}
	case *BreakStmt, *ContinueStmt:
		// leaves
	case *SpawnStmt:
		Inspect(n.Call, f)
	case *SemStmt:
		Inspect(n.Sem, f)
	case *SendStmt:
		Inspect(n.Chan, f)
		Inspect(n.Value, f)
	case *ExprStmt:
		Inspect(n.X, f)
	case *PrintStmt:
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *BlockStmt:
		for _, s := range n.List {
			Inspect(s, f)
		}

	case *FuncDecl:
		Inspect(n.Name, f)
		for _, p := range n.Params {
			Inspect(p.Name, f)
		}
		Inspect(n.Body, f)
	case *GlobalDecl:
		Inspect(n.Name, f)
		if n.Init != nil {
			Inspect(n.Init, f)
		}
	case *Program:
		for _, d := range n.Decls {
			Inspect(d, f)
		}
	}
}

// Stmts collects, in source order, every statement in the subtree rooted at
// s (including nested blocks but excluding BlockStmt wrappers).
func Stmts(s Stmt) []Stmt { return AppendStmts(nil, s) }

// AppendStmts appends the statements Stmts collects to dst and returns the
// result. It walks statements only, in the order Inspect visits them:
// expressions hold no statements.
func AppendStmts(dst []Stmt, s Stmt) []Stmt {
	switch s := s.(type) {
	case nil:
		return dst
	case *BlockStmt:
		for _, x := range s.List {
			dst = AppendStmts(dst, x)
		}
		return dst
	}
	dst = append(dst, s)
	switch s := s.(type) {
	case *IfStmt:
		dst = AppendStmts(dst, s.Then)
		dst = AppendStmts(dst, s.Else)
	case *WhileStmt:
		dst = AppendStmts(dst, s.Body)
	case *ForStmt:
		dst = AppendStmts(dst, s.Init)
		dst = AppendStmts(dst, s.Post)
		dst = AppendStmts(dst, s.Body)
	}
	return dst
}

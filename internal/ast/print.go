package ast

import (
	"strconv"
	"strings"

	"ppd/internal/token"
)

// ExprString renders an expression as MPL source text. It is used by the
// debugger when labelling dynamic-graph nodes and by golden tests.
func ExprString(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case *Ident:
		b.WriteString(e.Name)
	case *IntLit:
		var buf [20]byte
		b.Write(strconv.AppendInt(buf[:0], e.Value, 10))
	case *BoolLit:
		b.WriteString(strconv.FormatBool(e.Value))
	case *StringLit:
		var buf [64]byte
		b.Write(strconv.AppendQuote(buf[:0], e.Value))
	case *UnaryExpr:
		b.WriteString(e.Op.String())
		writeExpr(b, e.X)
	case *BinaryExpr:
		writeExpr(b, e.X)
		b.WriteString(e.Op.String())
		writeExpr(b, e.Y)
	case *IndexExpr:
		writeExpr(b, e.X)
		b.WriteByte('[')
		writeExpr(b, e.Index)
		b.WriteByte(']')
	case *CallExpr:
		b.WriteString(e.Fun.Name)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	case *RecvExpr:
		b.WriteString("recv(")
		b.WriteString(e.Chan.Name)
		b.WriteByte(')')
	case *ParenExpr:
		b.WriteByte('(')
		writeExpr(b, e.X)
		b.WriteByte(')')
	default:
		b.WriteString("<?expr>")
	}
}

// StmtString renders a one-line summary of a statement, used for debugger
// listings ("s12: d=SubD(a,b,a+b+c)").
func StmtString(s Stmt) string {
	var b strings.Builder
	b.Grow(32)
	writeStmt(&b, s)
	return b.String()
}

func writeStmt(b *strings.Builder, s Stmt) {
	switch s := s.(type) {
	case *VarDeclStmt:
		b.WriteString("var ")
		b.WriteString(s.Name.Name)
		if s.Init != nil {
			b.WriteString(" = ")
			writeExpr(b, s.Init)
		}
	case *AssignStmt:
		b.WriteString(s.LHS.Name)
		if s.Index != nil {
			b.WriteByte('[')
			writeExpr(b, s.Index)
			b.WriteByte(']')
		}
		b.WriteByte('=')
		writeExpr(b, s.RHS)
	case *IfStmt:
		b.WriteString("if (")
		writeExpr(b, s.Cond)
		b.WriteByte(')')
	case *WhileStmt:
		b.WriteString("while (")
		writeExpr(b, s.Cond)
		b.WriteByte(')')
	case *ForStmt:
		b.WriteString("for (;")
		if s.Cond != nil {
			writeExpr(b, s.Cond)
		}
		b.WriteString(";)")
	case *ReturnStmt:
		b.WriteString("return")
		if s.Result != nil {
			b.WriteByte(' ')
			writeExpr(b, s.Result)
		}
	case *BreakStmt:
		b.WriteString("break")
	case *ContinueStmt:
		b.WriteString("continue")
	case *SpawnStmt:
		b.WriteString("spawn ")
		writeExpr(b, s.Call)
	case *SemStmt:
		if s.Op == token.ACQUIRE {
			b.WriteString("P(")
		} else {
			b.WriteString("V(")
		}
		b.WriteString(s.Sem.Name)
		b.WriteByte(')')
	case *SendStmt:
		b.WriteString("send(")
		b.WriteString(s.Chan.Name)
		b.WriteByte(',')
		writeExpr(b, s.Value)
		b.WriteByte(')')
	case *ExprStmt:
		writeExpr(b, s.X)
	case *PrintStmt:
		b.WriteString("print(")
		for i, a := range s.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	case *BlockStmt:
		b.WriteString("{...}")
	default:
		b.WriteString("<?stmt>")
	}
}

package sem

import (
	"strings"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/parser"
	"ppd/internal/source"
)

func check(t *testing.T, src string) (*Info, *source.ErrorList) {
	t.Helper()
	errs := &source.ErrorList{}
	prog := parser.ParseString("test.mpl", src, errs)
	if errs.ErrCount() != 0 {
		t.Fatalf("parse errors:\n%v", errs.Err())
	}
	info := Check(prog, errs)
	return info, errs
}

func checkOK(t *testing.T, src string) *Info {
	t.Helper()
	info, errs := check(t, src)
	if errs.ErrCount() != 0 {
		t.Fatalf("unexpected check errors:\n%v", errs.Err())
	}
	return info
}

func wantErr(t *testing.T, src, sub string) {
	t.Helper()
	_, errs := check(t, src)
	if errs.ErrCount() == 0 {
		t.Fatalf("expected error containing %q, got none", sub)
	}
	if !strings.Contains(errs.Err().Error(), sub) {
		t.Fatalf("error %q does not contain %q", errs.Err(), sub)
	}
}

func TestGlobalNumbering(t *testing.T) {
	info := checkOK(t, `
shared sv;
var g = 3;
sem mutex = 1;
chan c;
shared arr[4];
func main() {}
`)
	if info.NumGlobals() != 5 {
		t.Fatalf("NumGlobals = %d, want 5", info.NumGlobals())
	}
	for i, g := range info.Globals {
		if g.GlobalID != i {
			t.Errorf("global %s has ID %d, want %d", g.Name, g.GlobalID, i)
		}
	}
	shared := info.SharedIDs()
	if len(shared) != 3 { // sv, g, arr
		t.Errorf("SharedIDs = %v, want 3 entries", shared)
	}
	if info.GlobalByName("mutex").Kind != SymSem {
		t.Error("mutex not a semaphore")
	}
	if info.GlobalByName("c").Kind != SymChan {
		t.Error("c not a channel")
	}
}

func TestLocalSlots(t *testing.T) {
	info := checkOK(t, `
func f(a int, b int) int {
	var x = a;
	var y = b;
	return x + y;
}
func main() { var r = f(1,2); }
`)
	f := info.Funcs["f"]
	if f.NumSlots != 4 {
		t.Fatalf("NumSlots = %d, want 4", f.NumSlots)
	}
	for i, s := range f.Locals {
		if s.Slot != i {
			t.Errorf("local %s slot = %d, want %d", s.Name, s.Slot, i)
		}
	}
	if len(f.Params) != 2 || f.Params[0].Kind != SymParam {
		t.Errorf("params wrong: %+v", f.Params)
	}
}

func TestScopingShadowing(t *testing.T) {
	info := checkOK(t, `
var x = 1;
func main() {
	var x = 2;
	if (x > 0) {
		var x = 3;
		x = 4;
	}
	x = 5;
}
`)
	mainFn := info.Funcs["main"]
	stmts := ast.Stmts(mainFn.Decl.Body)
	// x = 4 resolves to the innermost local (slot 1); x = 5 to slot 0.
	inner := stmts[3].(*ast.AssignStmt)
	outer := stmts[4].(*ast.AssignStmt)
	if got := info.Uses[inner.LHS]; got.Slot != 1 {
		t.Errorf("inner x slot = %d, want 1", got.Slot)
	}
	if got := info.Uses[outer.LHS]; got.Slot != 0 {
		t.Errorf("outer x slot = %d, want 0", got.Slot)
	}
}

func TestEnclosingFunc(t *testing.T) {
	info := checkOK(t, `
func a() { var x = 1; }
func main() { var y = 2; }
`)
	for id := ast.StmtID(1); id <= ast.StmtID(info.Prog.NumStmts); id++ {
		if info.EnclosingFunc[id] == nil {
			t.Errorf("stmt %d has no enclosing func", id)
		}
	}
}

func TestErrors(t *testing.T) {
	cases := []struct{ name, src, sub string }{
		{"undeclared", `func main() { x = 1; }`, "undeclared"},
		{"dup global", "var x;\nvar x;\nfunc main() {}", "duplicate global"},
		{"dup local", `func main() { var a = 1; var a = 2; }`, "duplicate declaration"},
		{"dup func", "func f() {}\nfunc f() {}\nfunc main() {}", "duplicate function"},
		{"no main", `func f() {}`, "no main function"},
		{"main params", `func main(a int) {}`, "main must take no parameters"},
		{"bad cond", `func main() { if (1+2) {} }`, "condition must be bool"},
		{"assign func", "func f() {}\nfunc main() { f = 1; }", "cannot assign to func"},
		{"assign sem", "sem s;\nfunc main() { s = 1; }", "cannot assign to sem"},
		{"call arity", "func f(a int) {}\nfunc main() { f(); }", "takes 1 argument"},
		{"call undeclared", `func main() { g(); }`, "undeclared function"},
		{"void as value", "func f() {}\nfunc main() { var x = f(); }", "void function"},
		{"not array", `var x; func main() { x[0] = 1; }`, "not an array"},
		{"whole array", "shared a[3];\nfunc main() { a = 1; }", "cannot assign whole array"},
		{"array no index", "shared a[3];\nfunc main() { var x = a; }", "without index"},
		{"P on non-sem", `var x; func main() { P(x); }`, "not a semaphore"},
		{"send non-chan", `var x; func main() { send(x, 1); }`, "not a channel"},
		{"recv non-chan", `var x; func main() { var v = recv(x); }`, "not a channel"},
		{"break outside", `func main() { break; }`, "break outside loop"},
		{"continue outside", `func main() { continue; }`, "continue outside loop"},
		{"return value from void", `func main() { return 3; }`, "returns no value"},
		{"missing return value", "func f() int { return; }\nfunc main() { var x = f(); }", "must return a int"},
		{"bool arith", `func main() { var x = true + 1; }`, "must be int"},
		{"mismatched eq", `func main() { if (1 == true) {} }`, "mismatched operands"},
		{"func as value", "func f() {}\nfunc main() { var x = f + 1; }", "used as a value"},
		{"sem as value", "sem s;\nfunc main() { var x = s + 1; }", "used as a value"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { wantErr(t, c.src, c.sub) })
	}
}

func TestSpawnWarnsOnResult(t *testing.T) {
	info, errs := check(t, `
func f() int { return 1; }
func main() { spawn f(); }
`)
	if errs.ErrCount() != 0 {
		t.Fatalf("unexpected errors: %v", errs.Err())
	}
	if errs.Len() == 0 {
		t.Error("expected a warning about discarded spawn result")
	}
	_ = info
}

func TestSymKindStrings(t *testing.T) {
	wants := map[SymKind]string{
		SymGlobal: "global", SymSem: "sem", SymChan: "chan",
		SymParam: "param", SymLocal: "local", SymFunc: "func",
	}
	for k, w := range wants {
		if k.String() != w {
			t.Errorf("%d = %q, want %q", k, k.String(), w)
		}
	}
	if SymKind(99).String() != "?" {
		t.Error("unknown kind")
	}
}

func TestBoolOperandErrors(t *testing.T) {
	wantErr(t, `func main() { if (1 && true) {} }`, "must be bool")
	wantErr(t, `func main() { if (true || 2) {} }`, "must be bool")
	wantErr(t, `func main() { var x = !3; }`, "must be bool")
	wantErr(t, `func main() { var x = -true; }`, "must be int")
}

func TestRecvAndCallTyping(t *testing.T) {
	checkOK(t, `
chan c;
func g() int { return 1; }
func main() {
	var a = recv(c) + g();
	print(a);
}`)
	wantErr(t, `
chan c;
func main() { if (recv(c)) {} }`, "condition must be bool")
}

func TestArrayIndexTyping(t *testing.T) {
	wantErr(t, `shared a[3]; func main() { var x = a[true]; }`, "index must be int")
	wantErr(t, `shared a[3]; func main() { a[false] = 1; }`, "index must be int")
}

func TestGlobalFuncNameCollision(t *testing.T) {
	wantErr(t, "var f;\nfunc f() {}\nfunc main() {}", "declared as both")
}

func TestSemInitTyping(t *testing.T) {
	wantErr(t, "sem s = true;\nfunc main() {}", "must be int")
}

package cfg

import (
	"testing"

	"ppd/internal/ast"
	"ppd/internal/parser"
	"ppd/internal/sem"
	"ppd/internal/source"
)

func buildFor(t *testing.T, src, fn string) (*Graph, *sem.Info) {
	t.Helper()
	errs := &source.ErrorList{}
	prog := parser.ParseString("test.mpl", src, errs)
	info := sem.Check(prog, errs)
	if errs.ErrCount() != 0 {
		t.Fatalf("front-end errors:\n%v", errs.Err())
	}
	fi, ok := info.Funcs[fn]
	if !ok {
		t.Fatalf("no function %q", fn)
	}
	return Build(fi, 0), info
}

// stmtNode finds the CFG node whose statement renders as the given summary.
func stmtNode(t *testing.T, g *Graph, summary string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Stmt != nil && ast.StmtString(n.Stmt) == summary {
			return n
		}
	}
	t.Fatalf("no node %q in:\n%s", summary, g.String())
	return nil
}

func TestStraightLine(t *testing.T) {
	g, _ := buildFor(t, `func main() { var a = 1; var b = 2; var c = a+b; }`, "main")
	// entry -> a -> b -> c -> exit
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5\n%s", len(g.Nodes), g.String())
	}
	n := g.Entry()
	order := []string{"var a = 1", "var b = 2", "var c = a+b"}
	for _, want := range order {
		if len(n.Succs) != 1 {
			t.Fatalf("node %d succs = %v", n.ID, n.Succs)
		}
		n = g.Nodes[n.Succs[0]]
		if got := ast.StmtString(n.Stmt); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	if n.Succs[0] != ExitNode {
		t.Error("last stmt does not reach exit")
	}
}

func TestIfElseDiamond(t *testing.T) {
	g, _ := buildFor(t, `
func main() {
	var a = 1;
	if (a > 0) { a = 2; } else { a = 3; }
	a = 4;
}`, "main")
	cond := stmtNode(t, g, "if (a>0)")
	if !cond.IsBranch || len(cond.Succs) != 2 {
		t.Fatalf("cond not a 2-way branch: %+v", cond)
	}
	join := stmtNode(t, g, "a=4")
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %v, want 2", join.Preds)
	}
	// Both arms control dependent on cond; join is not.
	a2 := stmtNode(t, g, "a=2")
	a3 := stmtNode(t, g, "a=3")
	depOn := func(n *Node, on NodeID) bool {
		for _, d := range g.CtrlDeps[n.ID] {
			if d == on {
				return true
			}
		}
		return false
	}
	if !depOn(a2, cond.ID) || !depOn(a3, cond.ID) {
		t.Error("branch arms not control dependent on condition")
	}
	if depOn(join, cond.ID) {
		t.Error("join spuriously control dependent on condition")
	}
}

func TestWhileLoop(t *testing.T) {
	g, _ := buildFor(t, `
func main() {
	var i = 0;
	while (i < 10) { i = i + 1; }
	print(i);
}`, "main")
	cond := stmtNode(t, g, "while (i<10)")
	body := stmtNode(t, g, "i=i+1")
	// Back edge body -> cond.
	found := false
	for _, s := range body.Succs {
		if s == cond.ID {
			found = true
		}
	}
	if !found {
		t.Error("missing back edge")
	}
	if len(g.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(g.Loops))
	}
	if g.Loops[0].Head != cond.ID {
		t.Errorf("loop head = %d, want %d", g.Loops[0].Head, cond.ID)
	}
	// Loop condition is control dependent on itself (it runs again only if
	// it took the true edge).
	self := false
	for _, d := range g.CtrlDeps[cond.ID] {
		if d == cond.ID {
			self = true
		}
	}
	if !self {
		t.Error("while condition not control dependent on itself")
	}
}

func TestForLoopWithPost(t *testing.T) {
	g, _ := buildFor(t, `
func main() {
	var s = 0;
	for (var i = 0; i < 4; i = i + 1) { s = s + i; }
	print(s);
}`, "main")
	cond := stmtNode(t, g, "for (;i<4;)")
	post := stmtNode(t, g, "i=i+1")
	body := stmtNode(t, g, "s=s+i")
	// body -> post -> cond
	if body.Succs[0] != post.ID {
		t.Errorf("body succ = %v, want post %d", body.Succs, post.ID)
	}
	if post.Succs[0] != cond.ID {
		t.Errorf("post succ = %v, want cond %d", post.Succs, cond.ID)
	}
	if len(g.Loops) != 1 {
		t.Errorf("loops = %d, want 1", len(g.Loops))
	}
}

func TestBreakContinue(t *testing.T) {
	g, _ := buildFor(t, `
func main() {
	var i = 0;
	while (i < 10) {
		i = i + 1;
		if (i == 3) { continue; }
		if (i == 7) { break; }
		print(i);
	}
	print(99);
}`, "main")
	cond := stmtNode(t, g, "while (i<10)")
	cont := stmtNode(t, g, "continue")
	brk := stmtNode(t, g, "break")
	after := stmtNode(t, g, "print(99)")
	if cont.Succs[0] != cond.ID {
		t.Errorf("continue goes to %v, want loop head %d", cont.Succs, cond.ID)
	}
	if brk.Succs[0] != after.ID {
		t.Errorf("break goes to %v, want after-loop %d", brk.Succs, after.ID)
	}
}

func TestReturnEdges(t *testing.T) {
	g, _ := buildFor(t, `
func f(a int) int {
	if (a > 0) { return 1; }
	return 0;
}
func main() { var x = f(1); }`, "f")
	r1 := stmtNode(t, g, "return 1")
	r0 := stmtNode(t, g, "return 0")
	if r1.Succs[0] != ExitNode || r0.Succs[0] != ExitNode {
		t.Error("returns must edge to EXIT")
	}
	// r0 is NOT control dependent on the if: it executes either way... no -
	// actually r0 only executes if the condition was false, so it IS control
	// dependent in a CFG where return 1 leaves the function.
	dep := false
	cond := stmtNode(t, g, "if (a>0)")
	for _, d := range g.CtrlDeps[r0.ID] {
		if d == cond.ID {
			dep = true
		}
	}
	if !dep {
		t.Error("return 0 should be control dependent on the early-return condition")
	}
}

func TestDominators(t *testing.T) {
	g, _ := buildFor(t, `
func main() {
	var a = 1;
	if (a > 0) { a = 2; } else { a = 3; }
	a = 4;
}`, "main")
	cond := stmtNode(t, g, "if (a>0)")
	a2 := stmtNode(t, g, "a=2")
	join := stmtNode(t, g, "a=4")
	if !g.Dominates(cond.ID, a2.ID) {
		t.Error("cond should dominate then-arm")
	}
	if !g.Dominates(cond.ID, join.ID) {
		t.Error("cond should dominate join")
	}
	if g.Dominates(a2.ID, join.ID) {
		t.Error("then-arm must not dominate join")
	}
	if !postDominates(g, join.ID, cond.ID) {
		t.Error("join should postdominate cond")
	}
	if postDominates(g, a2.ID, cond.ID) {
		t.Error("then-arm must not postdominate cond")
	}
}

// postDominates reports whether a postdominates b, walking b's
// postdominator tree.
func postDominates(g *Graph, a, b NodeID) bool {
	for ; b != -1; b = g.ipdom[b] {
		if a == b {
			return true
		}
	}
	return false
}

func TestEmptyFunction(t *testing.T) {
	g, _ := buildFor(t, `func f() {}
func main() { f(); }`, "f")
	if len(g.Entry().Succs) != 1 || g.Entry().Succs[0] != ExitNode {
		t.Errorf("empty fn: entry succs = %v, want [exit]", g.Entry().Succs)
	}
}

func TestInfiniteLoopStillHasExitPath(t *testing.T) {
	// for(;;) with a break is the only exit.
	g, _ := buildFor(t, `
func main() {
	var i = 0;
	for (;;) {
		i = i + 1;
		if (i > 3) { break; }
	}
	print(i);
}`, "main")
	after := stmtNode(t, g, "print(i)")
	if len(after.Preds) == 0 {
		t.Error("after-loop unreachable; break edge missing")
	}
}

func TestNestedLoops(t *testing.T) {
	g, _ := buildFor(t, `
func main() {
	var s = 0;
	var i = 0;
	while (i < 3) {
		var j = 0;
		while (j < 3) {
			s = s + 1;
			j = j + 1;
		}
		i = i + 1;
	}
}`, "main")
	if len(g.Loops) != 2 {
		t.Fatalf("loops = %d, want 2\n%s", len(g.Loops), g.String())
	}
	// Inner loop body ⊂ outer loop body.
	sizes := []int{len(g.Loops[0].Body), len(g.Loops[1].Body)}
	if sizes[0] == sizes[1] {
		t.Errorf("expected nested loops of different size, got %v", sizes)
	}
}

func TestEveryStmtHasNode(t *testing.T) {
	src := `
func work(n int) int {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}
func main() { var r = work(5); print(r); }`
	g, info := buildFor(t, src, "work")
	for _, s := range ast.Stmts(info.Funcs["work"].Decl.Body) {
		if g.NodeFor(s.ID()) < 0 {
			t.Errorf("stmt s%d %q has no CFG node", s.ID(), ast.StmtString(s))
		}
	}
}

package dataflow

import (
	"testing"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/cfg"
	"ppd/internal/parser"
	"ppd/internal/sem"
	"ppd/internal/source"
)

func setup(t *testing.T, src, fn string) (*Space, *cfg.Graph, map[ast.StmtID]*UseDef, *sem.Info) {
	t.Helper()
	errs := &source.ErrorList{}
	prog := parser.ParseString("test.mpl", src, errs)
	info := sem.Check(prog, errs)
	if errs.ErrCount() != 0 {
		t.Fatalf("front-end errors:\n%v", errs.Err())
	}
	fi := info.Funcs[fn]
	space := NewSpace(info, fi)
	uds := ComputeUseDef(space, 0)
	g := cfg.Build(fi, 0)
	return space, g, uds, info
}

// names converts a space-set to sorted variable names for assertions.
func names(space *Space, ud interface{ Elems() []int }) []string {
	var out []string
	for _, i := range ud.Elems() {
		out = append(out, space.Name(i))
	}
	return out
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func findStmt(t *testing.T, info *sem.Info, fn, summary string) ast.StmtID {
	t.Helper()
	for _, s := range ast.Stmts(info.Funcs[fn].Decl.Body) {
		if ast.StmtString(s) == summary {
			return s.ID()
		}
	}
	t.Fatalf("no stmt %q in %s", summary, fn)
	return ast.NoStmt
}

func TestUseDefAssign(t *testing.T) {
	src := `
var g;
func main() {
	var a = 1;
	var b = a + g;
	a = b * 2;
}`
	space, _, uds, info := setup(t, src, "main")
	id := findStmt(t, info, "main", "var b = a+g")
	ud := uds[id]
	if got := names(space, ud.Use); !eqStrings(got, []string{"a", "g"}) {
		t.Errorf("use = %v, want [a g]", got)
	}
	if got := names(space, ud.Def); !eqStrings(got, []string{"b"}) {
		t.Errorf("def = %v, want [b]", got)
	}
	if !ud.Kill.Equal(ud.Def) {
		t.Error("scalar assignment must kill")
	}
}

func TestUseDefArray(t *testing.T) {
	src := `
shared arr[4];
func main() {
	var i = 1;
	arr[i] = i + 1;
	var x = arr[0];
}`
	space, _, uds, info := setup(t, src, "main")
	id := findStmt(t, info, "main", "arr[i]=i+1")
	ud := uds[id]
	if got := names(space, ud.Use); !eqStrings(got, []string{"i", "arr"}) {
		t.Errorf("use = %v, want [i arr]", got)
	}
	if got := names(space, ud.Def); !eqStrings(got, []string{"arr"}) {
		t.Errorf("def = %v, want [arr]", got)
	}
	if !ud.Kill.IsEmpty() {
		t.Error("array element write must not kill the array")
	}
}

func TestUseDefControlPredicates(t *testing.T) {
	src := `
func main() {
	var a = 1;
	if (a > 0) { a = 2; }
	while (a < 5) { a = a + 1; }
}`
	space, _, uds, info := setup(t, src, "main")
	ifID := findStmt(t, info, "main", "if (a>0)")
	if got := names(space, uds[ifID].Use); !eqStrings(got, []string{"a"}) {
		t.Errorf("if use = %v", got)
	}
	if !uds[ifID].Def.IsEmpty() {
		t.Error("if must not define")
	}
}

func TestUseDefCallsRecorded(t *testing.T) {
	src := `
func f(x int) int { return x; }
func main() {
	var a = f(1) + f(2);
}`
	_, _, uds, info := setup(t, src, "main")
	id := findStmt(t, info, "main", "var a = f(1)+f(2)")
	if got := len(uds[id].Calls); got != 2 {
		t.Errorf("calls = %d, want 2", got)
	}
}

func TestRecvHasNoLocalUse(t *testing.T) {
	src := `
chan c;
func main() {
	var v = recv(c);
}`
	_, _, uds, info := setup(t, src, "main")
	id := findStmt(t, info, "main", "var v = recv(c)")
	if !uds[id].Use.IsEmpty() {
		t.Error("recv should contribute no intra-process use")
	}
}

func TestReachingStraightLine(t *testing.T) {
	src := `
func main() {
	var a = 1;
	var b = a;
	a = 2;
	var c = a;
}`
	space, g, uds, info := setup(t, src, "main")
	r := ComputeReaching(space, g, uds)

	aIdx := -1
	for i := 0; i < space.Size(); i++ {
		if space.Name(i) == "a" {
			aIdx = i
		}
	}
	if aIdx < 0 {
		t.Fatal("no variable a")
	}
	// At "var c = a", only the def at "a = 2" reaches.
	cNode := g.NodeFor(findStmt(t, info, "main", "var c = a"))
	defs := r.ReachingDefsOf(cNode, aIdx)
	if len(defs) != 1 {
		t.Fatalf("reaching defs of a = %v, want 1", defs)
	}
	defNode := g.Nodes[defs[0].Node]
	if got := ast.StmtString(defNode.Stmt); got != "a=2" {
		t.Errorf("reaching def = %q, want a=2", got)
	}
	// At "var b = a", the def at "var a = 1" reaches.
	bNode := g.NodeFor(findStmt(t, info, "main", "var b = a"))
	defs = r.ReachingDefsOf(bNode, aIdx)
	if len(defs) != 1 || ast.StmtString(g.Nodes[defs[0].Node].Stmt) != "var a = 1" {
		t.Errorf("reaching def at b = %v", defs)
	}
}

func TestReachingThroughBranch(t *testing.T) {
	src := `
func main() {
	var a = 1;
	if (a > 0) { a = 2; } else { a = 3; }
	var c = a;
}`
	space, g, uds, info := setup(t, src, "main")
	r := ComputeReaching(space, g, uds)
	aIdx := 0 // slot 0 is 'a' (first local)
	if space.Name(aIdx) != "a" {
		t.Fatal("slot 0 not a")
	}
	cNode := g.NodeFor(findStmt(t, info, "main", "var c = a"))
	defs := r.ReachingDefsOf(cNode, aIdx)
	got := map[string]bool{}
	for _, d := range defs {
		got[ast.StmtString(g.Nodes[d.Node].Stmt)] = true
	}
	if len(defs) != 2 || !got["a=2"] || !got["a=3"] {
		t.Errorf("reaching defs = %v, want {a=2, a=3}", got)
	}
}

func TestReachingLoopCarried(t *testing.T) {
	src := `
func main() {
	var s = 0;
	var i = 0;
	while (i < 3) {
		s = s + i;
		i = i + 1;
	}
	print(s);
}`
	space, g, uds, info := setup(t, src, "main")
	r := ComputeReaching(space, g, uds)
	sIdx := 0
	if space.Name(sIdx) != "s" {
		t.Fatal("slot 0 not s")
	}
	// Inside the loop, "s = s + i" sees both the initial def and its own
	// loop-carried def.
	bodyNode := g.NodeFor(findStmt(t, info, "main", "s=s+i"))
	defs := r.ReachingDefsOf(bodyNode, sIdx)
	if len(defs) != 2 {
		t.Errorf("loop-carried reaching defs = %d, want 2 (%v)", len(defs), defs)
	}
}

func TestEntryDefinesParamsAndGlobals(t *testing.T) {
	src := `
var g = 5;
func f(p int) int {
	return p + g;
}
func main() { var x = f(1); }`
	space, g1, uds, info := setup(t, src, "f")
	r := ComputeReaching(space, g1, uds)
	retNode := g1.NodeFor(findStmt(t, info, "f", "return p+g"))
	for _, name := range []string{"p", "g"} {
		idx := -1
		for i := 0; i < space.Size(); i++ {
			if space.Name(i) == name {
				idx = i
			}
		}
		defs := r.ReachingDefsOf(retNode, idx)
		if len(defs) != 1 || defs[0].Node != cfg.EntryNode {
			t.Errorf("%s: defs = %v, want [ENTRY]", name, defs)
		}
	}
}

func TestCallEffectsWiden(t *testing.T) {
	src := `
var g;
func setg(v int) { g = v; }
func main() {
	setg(3);
	var x = g;
}`
	errs := &source.ErrorList{}
	prog := parser.ParseString("t.mpl", src, errs)
	info := sem.Check(prog, errs)
	if errs.ErrCount() != 0 {
		t.Fatal(errs.Err())
	}
	space := NewSpace(info, info.Funcs["main"])
	uds := ComputeUseDef(space, 0)

	gid := info.GlobalByName("g").GlobalID
	callID := findStmt(t, info, "main", "setg(3)")
	if uds[callID].Def.Has(space.GlobalIndex(gid)) {
		t.Fatal("direct def should not include callee effect yet")
	}
	defined := bitset.New(info.NumGlobals())
	defined.Add(gid)
	ApplyCallEffects(space, uds, func(callee string) (*bitset.Set, *bitset.Set) {
		if callee == "setg" {
			return bitset.New(info.NumGlobals()), defined
		}
		return nil, nil
	})
	if !uds[callID].Def.Has(space.GlobalIndex(gid)) {
		t.Error("call effect not folded into def set")
	}
	if uds[callID].Kill.Has(space.GlobalIndex(gid)) {
		t.Error("callee may-def must not kill")
	}
}

func TestDefUseChains(t *testing.T) {
	src := `
func main() {
	var a = 1;
	var b = a + a;
}`
	space, g, uds, _ := setup(t, src, "main")
	r := ComputeReaching(space, g, uds)
	chains := r.DefUseChains()
	// b's node uses a exactly once in the chain list (dedup by def site).
	count := 0
	for _, c := range chains {
		if space.Name(c.Var) == "a" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("a def-use edges = %d, want 1", count)
	}
}

func TestLivenessStraightLine(t *testing.T) {
	src := `
func main() {
	var a = 1;
	var b = a + 1;
	print(b);
	var c = 5;
}`
	space, g, uds, info := setup(t, src, "main")
	lv := ComputeLiveness(space, g, uds)
	aIdx, bIdx, cIdx := 0, 1, 2
	if space.Name(aIdx) != "a" || space.Name(bIdx) != "b" || space.Name(cIdx) != "c" {
		t.Fatal("slot layout unexpected")
	}
	// After "var a = 1", a is live (b reads it).
	aNode := g.NodeFor(findStmt(t, info, "main", "var a = 1"))
	if !lv.Out[aNode].Has(aIdx) {
		t.Error("a should be live after its definition")
	}
	// After "print(b)", b is dead.
	pNode := g.NodeFor(findStmt(t, info, "main", "print(b)"))
	if lv.Out[pNode].Has(bIdx) {
		t.Error("b should be dead after its last use")
	}
	// c is never read: dead even right after its def.
	cNode := g.NodeFor(findStmt(t, info, "main", "var c = 5"))
	if lv.Out[cNode].Has(cIdx) {
		t.Error("unused c should be dead")
	}
}

func TestLivenessLoopCarried(t *testing.T) {
	src := `
func main() {
	var s = 0;
	var i = 0;
	while (i < 3) {
		s = s + i;
		i = i + 1;
	}
	print(s);
}`
	space, g, uds, info := setup(t, src, "main")
	lv := ComputeLiveness(space, g, uds)
	sIdx, iIdx := 0, 1
	_ = space
	// Inside the loop, both s and i are live at the body statement.
	body := g.NodeFor(findStmt(t, info, "main", "s=s+i"))
	if !lv.LiveBefore(body).Has(sIdx) || !lv.LiveBefore(body).Has(iIdx) {
		t.Error("loop-carried variables should be live in the body")
	}
	// After the loop (at print), i is dead, s live.
	pNode := g.NodeFor(findStmt(t, info, "main", "print(s)"))
	if lv.LiveBefore(pNode).Has(iIdx) {
		t.Error("i should be dead after the loop")
	}
	if !lv.LiveBefore(pNode).Has(sIdx) {
		t.Error("s should be live at print")
	}
}

package dynpdg

import (
	"ppd/internal/source"
	"strings"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/emulation"
	"ppd/internal/vm"
)

// buildGraph compiles src, runs it logged, emulates fn's first interval,
// and builds the dynamic graph.
func buildGraph(t *testing.T, src, fn string, cfg eblock.Config) (*Graph, *compile.Artifacts) {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{Config: cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog})
	_ = v.Run()
	em := emulation.New(art.Prog, v.Log.Books[0])
	blk := art.Plan.ByFunc[fn]
	if blk == nil {
		t.Fatalf("no block for %s", fn)
	}
	idxs := em.PrelogIndices(int(blk.ID))
	if len(idxs) == 0 {
		t.Fatalf("no intervals for %s", fn)
	}
	res, err := em.Emulate(idxs[0])
	if err != nil {
		t.Fatalf("emulate: %v", err)
	}
	return Build(art, res.Trace, fn), art
}

// nodeByLabel finds the last node with the given label.
func nodeByLabel(t *testing.T, g *Graph, label string) *Node {
	t.Helper()
	var found *Node
	for _, n := range g.Nodes {
		if n.Label == label {
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no node labelled %q in:\n%s", label, g)
	}
	return found
}

// hasDataEdge reports a data edge from -> to.
func hasDataEdge(g *Graph, from, to NodeID) bool {
	for _, e := range g.Incoming(to) {
		if e.Kind == EdgeData && e.From == from {
			return true
		}
	}
	return false
}

func hasCtrlEdge(g *Graph, from, to NodeID) bool {
	for _, e := range g.Incoming(to) {
		if e.Kind == EdgeControl && e.From == from {
			return true
		}
	}
	return false
}

// TestFigure41DynamicGraph reproduces the paper's Fig 4.1: the program
//
//	s1 a=...; s2 b=...; s3 d=SubD(a,b,a+b+c);
//	s4 if (d>0) s5 sq=sqrt(d); else sq=sqrt(-d);
//	s6 a=a+sq;
//
// and checks the graph's shape node-for-node: the SubD sub-graph node with
// %1, %2 and the fictional %3 parameter nodes; sq's dependence on the sqrt
// sub-graph; sq's control dependence on the d>0 predicate; and s6's data
// dependences on a and sq.
func TestFigure41DynamicGraph(t *testing.T) {
	src := `
func SubD(x int, y int, z int) int {
	return x + y - z;
}
func sqrt(v int) int {
	var r = 0;
	while ((r + 1) * (r + 1) <= v) { r = r + 1; }
	return r;
}
func main() {
	var c = 5;
	var a = 30;
	var b = 20;
	var d = SubD(a, b, a + b + c);
	var sq = 0;
	if (d > 0) { sq = sqrt(d); } else { sq = sqrt(-d); }
	a = a + sq;
}`
	g, art := buildGraph(t, src, "main", eblock.Config{})

	// The SubD call appears as a sub-graph node whose value is the returned
	// d (30+20-55 = -5).
	subD := nodeByLabel(t, g, "SubD")
	if subD.Kind != NodeSubGraph || !subD.HasValue || subD.Value != -5 {
		t.Errorf("SubD node = %+v, want subgraph with value -5", subD)
	}

	// %1, %2, %3 parameter nodes feed SubD; %3 is the fictional node for
	// the expression argument with deps on a, b, and c.
	var params []*Node
	for _, e := range g.Incoming(subD.ID) {
		if e.Kind == EdgeData && g.Nodes[e.From].Kind == NodeParam {
			params = append(params, g.Nodes[e.From])
		}
	}
	if len(params) != 3 {
		t.Fatalf("SubD param nodes = %d, want 3\n%s", len(params), g)
	}
	aDef := nodeByLabel(t, g, "a") // var a = 30 (the later a=a+sq relabels; nodeByLabel takes last)
	// Find the *first* 'a' node (s2 in the paper's numbering).
	var aInit *Node
	for _, n := range g.Nodes {
		if n.Label == "a" && n.Kind == NodeSingular {
			aInit = n
			break
		}
	}
	bInit := nodeByLabel(t, g, "b")
	cInit := nodeByLabel(t, g, "c")

	byLabel := map[string]*Node{}
	for _, p := range params {
		byLabel[p.Label] = p
	}
	p1, p2, p3 := byLabel["%1"], byLabel["%2"], byLabel["%3"]
	if p1 == nil || p2 == nil || p3 == nil {
		t.Fatalf("missing param nodes: %v", byLabel)
	}
	if p1.Value != 30 || p2.Value != 20 || p3.Value != 55 {
		t.Errorf("param values = %d,%d,%d want 30,20,55", p1.Value, p2.Value, p3.Value)
	}
	if !hasDataEdge(g, aInit.ID, p1.ID) {
		t.Error("%1 must depend on a")
	}
	if hasDataEdge(g, bInit.ID, p1.ID) {
		t.Error("%1 must NOT depend on b (per-argument precision)")
	}
	if !hasDataEdge(g, bInit.ID, p2.ID) {
		t.Error("%2 must depend on b")
	}
	// The fictional %3 = a+b+c depends on all three.
	for name, def := range map[string]*Node{"a": aInit, "b": bInit, "c": cInit} {
		if !hasDataEdge(g, def.ID, p3.ID) {
			t.Errorf("%%3 must depend on %s", name)
		}
	}

	// d's node: singular, value -5, fed by the SubD sub-graph node.
	dDef := nodeByLabel(t, g, "d")
	if dDef.Value != -5 || !hasDataEdge(g, subD.ID, dDef.ID) {
		t.Errorf("d node = %+v; must carry -5 and depend on SubD", dDef)
	}

	// The predicate instance (d>0) is false and depends on d.
	pred := nodeByLabel(t, g, "if (d>0)")
	if !pred.HasValue || pred.Value != 0 {
		t.Errorf("predicate value = %+v, want 0 (false)", pred)
	}
	if !hasDataEdge(g, dDef.ID, pred.ID) {
		t.Error("predicate must depend on d")
	}

	// sq = sqrt(-d) executed (else branch): its node is control dependent
	// on the predicate and fed by the sqrt sub-graph.
	var sqrtSub *Node
	for _, n := range g.Nodes {
		if n.Label == "sqrt" && n.Kind == NodeSubGraph {
			sqrtSub = n
		}
	}
	if sqrtSub == nil {
		t.Fatalf("no sqrt sub-graph node\n%s", g)
	}
	if sqrtSub.Value != 2 { // floor(sqrt(5)) = 2
		t.Errorf("sqrt value = %d, want 2", sqrtSub.Value)
	}
	sq := nodeByLabel(t, g, "sq")
	if !hasDataEdge(g, sqrtSub.ID, sq.ID) {
		t.Error("sq must depend on the sqrt sub-graph node")
	}
	if !hasCtrlEdge(g, pred.ID, sq.ID) {
		t.Error("sq must be control dependent on (d>0)")
	}

	// s6: a = a + sq depends on a's original def and on sq.
	if aDef == aInit {
		t.Fatal("expected a second 'a' node for s6")
	}
	if !hasDataEdge(g, aInit.ID, aDef.ID) || !hasDataEdge(g, sq.ID, aDef.ID) {
		t.Errorf("s6 'a' deps wrong:\n%s", g)
	}
	if aDef.Value != 30+2 {
		t.Errorf("final a = %d, want 32", aDef.Value)
	}
	_ = art
}

func TestParamsAsInitialNodes(t *testing.T) {
	// Emulating a callee's interval: parameter reads resolve to @pre
	// initial nodes (values from the prelog).
	g, _ := buildGraph(t, `
func f(p int) int { return p * 2; }
func main() { print(f(21)); }`, "f", eblock.Config{})
	pre := nodeByLabel(t, g, "p@pre")
	if pre.Kind != NodeInitial {
		t.Errorf("p@pre kind = %v", pre.Kind)
	}
	ret := nodeByLabel(t, g, "return p*2")
	if !hasDataEdge(g, pre.ID, ret.ID) {
		t.Errorf("return must depend on p@pre:\n%s", g)
	}
}

func TestGlobalsAsInitialNodes(t *testing.T) {
	g, _ := buildGraph(t, `
var gv = 9;
func main() { var x = gv + 1; }`, "main", eblock.Config{})
	pre := nodeByLabel(t, g, "gv@pre")
	x := nodeByLabel(t, g, "x")
	if !hasDataEdge(g, pre.ID, x.ID) {
		t.Errorf("x must depend on gv@pre:\n%s", g)
	}
	if x.Value != 10 {
		t.Errorf("x = %d, want 10", x.Value)
	}
}

func TestLoopInstancesDistinct(t *testing.T) {
	g, _ := buildGraph(t, `
func main() {
	var s = 0;
	var i = 0;
	while (i < 3) {
		s = s + i;
		i = i + 1;
	}
}`, "main", eblock.Config{})
	// Three instances of "s=s+i", chained by data deps.
	body := g.NodesForStmt(findStmtID(t, g, "s=s+i"))
	var singulars []*Node
	for _, n := range body {
		if n.Kind == NodeSingular {
			singulars = append(singulars, n)
		}
	}
	if len(singulars) != 3 {
		t.Fatalf("s=s+i instances = %d, want 3", len(singulars))
	}
	if !hasDataEdge(g, singulars[0].ID, singulars[1].ID) ||
		!hasDataEdge(g, singulars[1].ID, singulars[2].ID) {
		t.Error("loop-carried data deps missing between instances")
	}
	// Values accumulate 0, 1, 3.
	wants := []int64{0, 1, 3}
	for i, n := range singulars {
		if n.Value != wants[i] {
			t.Errorf("instance %d value = %d, want %d", i, n.Value, wants[i])
		}
	}
	// Each body instance is control dependent on a while-predicate instance.
	for i, n := range singulars {
		ok := false
		for _, e := range g.Incoming(n.ID) {
			if e.Kind == EdgeControl && strings.HasPrefix(g.Nodes[e.From].Label, "while") {
				ok = true
			}
		}
		if !ok {
			t.Errorf("instance %d missing control dep on while predicate", i)
		}
	}
}

func findStmtID(t *testing.T, g *Graph, summary string) ast.StmtID {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Label == summary && n.Stmt != ast.NoStmt {
			return n.Stmt
		}
	}
	// fall back to searching the program
	for id := ast.StmtID(1); id <= ast.StmtID(g.Art.Info.Prog.NumStmts); id++ {
		if st := g.Art.Info.Prog.StmtByID(id); st != nil && ast.StmtString(st) == summary {
			return id
		}
	}
	t.Fatalf("no statement %q", summary)
	return ast.NoStmt
}

func TestSkippedCallDefinesGlobals(t *testing.T) {
	// When a callee is substituted by its postlog, later reads of globals
	// it wrote must resolve to the sub-graph node.
	g, _ := buildGraph(t, `
var gv;
func setg(v int) { gv = v * 3; }
func main() {
	setg(7);
	var x = gv;
}`, "main", eblock.Config{})
	var sub *Node
	for _, n := range g.Nodes {
		if n.Kind == NodeSubGraph && n.Label == "setg" {
			sub = n
		}
	}
	if sub == nil {
		t.Fatalf("no setg sub-graph node:\n%s", g)
	}
	x := nodeByLabel(t, g, "x")
	if !hasDataEdge(g, sub.ID, x.ID) {
		t.Errorf("x must depend on the substituted setg node:\n%s", g)
	}
	if x.Value != 21 {
		t.Errorf("x = %d, want 21", x.Value)
	}
}

func TestCallResultFeedsConsumer(t *testing.T) {
	g, _ := buildGraph(t, `
var gv = 5;
func main() {
	var x = gv + double(4);
}
func double(v int) int { return v * 2; }`, "main", eblock.Config{})
	x := nodeByLabel(t, g, "x")
	var sub *Node
	for _, n := range g.Nodes {
		if n.Kind == NodeSubGraph && n.Label == "double" {
			sub = n
		}
	}
	if sub == nil {
		t.Fatal("no double node")
	}
	if !hasDataEdge(g, sub.ID, x.ID) {
		t.Errorf("x must depend on double's result:\n%s", g)
	}
	// And the pre-call read of gv must survive the call boundary.
	pre := nodeByLabel(t, g, "gv@pre")
	if !hasDataEdge(g, pre.ID, x.ID) {
		t.Errorf("x must also depend on gv@pre (read before the call):\n%s", g)
	}
	if x.Value != 13 {
		t.Errorf("x = %d, want 13", x.Value)
	}
}

func TestRecvFeedsConsumer(t *testing.T) {
	src := `
chan c;
func producer() { send(c, 11); }
func main() {
	spawn producer();
	var v = recv(c);
	var w = v + 1;
}`
	g, _ := buildGraph(t, src, "main", eblock.Config{})
	var recvNode *Node
	for _, n := range g.Nodes {
		if n.Kind == NodeSync && strings.Contains(n.Label, "recv") {
			recvNode = n
		}
	}
	if recvNode == nil {
		t.Fatalf("no recv sync node:\n%s", g)
	}
	v := nodeByLabel(t, g, "v")
	if !hasDataEdge(g, recvNode.ID, v.ID) {
		t.Errorf("v must depend on the recv sync node:\n%s", g)
	}
	w := nodeByLabel(t, g, "w")
	if !hasDataEdge(g, v.ID, w.ID) {
		t.Error("w must depend on v")
	}
}

func TestLastNodeAndFlowback(t *testing.T) {
	g, _ := buildGraph(t, `
func main() {
	var a = 1;
	var b = a + 1;
	var c = b * 2;
}`, "main", eblock.Config{})
	last := g.LastNode()
	if last == nil || last.Label != "c" {
		t.Fatalf("last node = %+v, want c", last)
	}
	// Flowback: c <- b <- a.
	var b *Node
	for _, e := range g.Incoming(last.ID) {
		if e.Kind == EdgeData {
			b = g.Nodes[e.From]
		}
	}
	if b == nil || b.Label != "b" {
		t.Fatalf("c's dep = %+v, want b", b)
	}
	var a *Node
	for _, e := range g.Incoming(b.ID) {
		if e.Kind == EdgeData {
			a = g.Nodes[e.From]
		}
	}
	if a == nil || a.Label != "a" {
		t.Fatalf("b's dep = %+v, want a", a)
	}
}

func TestNestedIfControlChain(t *testing.T) {
	g, _ := buildGraph(t, `
func main() {
	var p = 1;
	var q = 1;
	if (p == 1) {
		if (q == 1) {
			var z = 9;
		}
	}
}`, "main", eblock.Config{})
	z := nodeByLabel(t, g, "z")
	inner := nodeByLabel(t, g, "if (q==1)")
	outer := nodeByLabel(t, g, "if (p==1)")
	if !hasCtrlEdge(g, inner.ID, z.ID) {
		t.Error("z must be control dependent on inner if")
	}
	if !hasCtrlEdge(g, outer.ID, inner.ID) {
		t.Error("inner if must be control dependent on outer if")
	}
}

func TestDOTExport(t *testing.T) {
	g, _ := buildGraph(t, `
func double(v int) int { return v * 2; }
func main() {
	var a = 3;
	var b = double(a);
	if (b > 5) { print(b); }
}`, "main", eblock.Config{})
	dot := g.DOT(false)
	for _, want := range []string{
		"digraph ppd", "rankdir=BT", "shape=box", // the sub-graph node
		"style=dashed];", // a control edge
		"->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, "dotted") {
		t.Error("flow edges must be omitted by default")
	}
	withFlow := g.DOT(true)
	if !strings.Contains(withFlow, "dotted") {
		t.Error("flow edges requested but absent")
	}
}

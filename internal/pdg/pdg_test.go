package pdg

import (
	"testing"

	"ppd/internal/ast"
	"ppd/internal/cfg"
	"ppd/internal/parser"
	"ppd/internal/sem"
	"ppd/internal/source"
)

func build(t *testing.T, src string) *Program {
	t.Helper()
	errs := &source.ErrorList{}
	prog := parser.ParseString("test.mpl", src, errs)
	info := sem.Check(prog, errs)
	if errs.ErrCount() != 0 {
		t.Fatalf("front-end errors:\n%v", errs.Err())
	}
	return Build(info)
}

func nodeOf(t *testing.T, f *FuncPDG, summary string) cfg.NodeID {
	t.Helper()
	for _, n := range f.CFG.Nodes {
		if n.Stmt != nil && ast.StmtString(n.Stmt) == summary {
			return n.ID
		}
	}
	t.Fatalf("no node %q", summary)
	return -1
}

func TestDataDepsIncludeCallEffects(t *testing.T) {
	p := build(t, `
var g;
func setg(v int) { g = v; }
func main() {
	setg(7);
	var x = g;
}`)
	f := p.Funcs["main"]
	use := nodeOf(t, f, "var x = g")
	def := nodeOf(t, f, "setg(7)")
	found := false
	for _, dd := range f.DataDeps {
		if dd.To == use && dd.From == def && f.Space.Name(dd.Var) == "g" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing interprocedural data dep setg(7) -> var x = g; have %v", f.DataDeps)
	}
}

func TestCtrlDepsExposed(t *testing.T) {
	p := build(t, `
func main() {
	var a = 1;
	if (a > 0) { a = 2; }
}`)
	f := p.Funcs["main"]
	arm := nodeOf(t, f, "a=2")
	cond := nodeOf(t, f, "if (a>0)")
	deps := f.CtrlDepsOf(arm)
	if len(deps) != 1 || deps[0] != cond {
		t.Errorf("ctrl deps of arm = %v, want [%d]", deps, cond)
	}
}

func TestSimplifiedKeepsOnlyStructuralNodes(t *testing.T) {
	p := build(t, `
sem s;
func helper() {}
func main() {
	var a = 1;
	a = a + 1;
	P(s);
	if (a > 0) { a = 2; }
	helper();
	V(s);
}`)
	f := p.Funcs["main"]
	sg := f.Simple
	// Kept: ENTRY, EXIT, P, if, helper-call, V = 6 nodes.
	if len(sg.Kinds) != 6 {
		t.Fatalf("kept = %d nodes, want 6\n%s", len(sg.Kinds), f.String())
	}
	counts := map[SimpleNodeKind]int{}
	for _, k := range sg.Kinds {
		counts[k]++
	}
	if counts[SimpleEntry] != 1 || counts[SimpleExit] != 1 ||
		counts[SimpleBranch] != 1 || counts[SimpleSync] != 2 || counts[SimpleCall] != 1 {
		t.Errorf("kind counts = %v", counts)
	}
}

func TestSimplifiedEdgeInterior(t *testing.T) {
	p := build(t, `
sem s;
func main() {
	var a = 1;
	var b = 2;
	P(s);
	V(s);
}`)
	f := p.Funcs["main"]
	sg := f.Simple
	// Edge ENTRY->P must collapse the two declarations.
	for _, eid := range sg.Out[cfg.EntryNode] {
		e := sg.Edges[eid]
		if sg.Kinds[e.To] == SimpleSync && len(e.Interior) != 2 {
			t.Errorf("entry edge interior = %d stmts, want 2", len(e.Interior))
		}
	}
}

// TestFigure53SyncUnits mirrors the structure of the paper's Fig 5.3: a
// subroutine accessing a shared variable under nested conditionals, whose
// simplified graph partitions into synchronization units that overlap in
// their tail edges (as the paper's units {e1,e2,e3,e5,e6,e8,e9}, {e4,e9},
// {e7,e8,e9} share e8/e9).
func TestFigure53SyncUnits(t *testing.T) {
	p := build(t, `
shared SV;
sem s;
func sync0() { P(s); V(s); }
func syncB() { P(s); V(s); }
func foo3(p int, q int, r int) {
	sync0();
	if (p == 1) {
		syncB();
	}
	if (r == 1) {
		SV = SV + p;
	} else {
		SV = SV - q;
	}
}
func main() { foo3(1, 1, 1); }`)
	f := p.Funcs["foo3"]
	sg := f.Simple

	// Non-branching nodes: ENTRY, call sync0, call syncB, EXIT.
	// Units start at ENTRY, sync0, syncB -> 3 units.
	if len(sg.Units) != 3 {
		t.Fatalf("units = %d, want 3\n%s", len(sg.Units), f.String())
	}

	entryU := sg.UnitAt(cfg.EntryNode)
	aU := sg.UnitAt(nodeOf(t, f, "sync0()"))
	bU := sg.UnitAt(nodeOf(t, f, "syncB()"))
	if entryU == nil || aU == nil || bU == nil {
		t.Fatalf("missing units\n%s", f.String())
	}

	// The entry unit contains exactly the edge to the first call.
	if len(entryU.Edges) != 1 {
		t.Errorf("entry unit edges = %v, want 1 edge", entryU.Edges)
	}

	// Units A and B must overlap in the two tail edges out of the r-branch
	// (the Fig 5.3 sharing property).
	inA := map[int]bool{}
	for _, e := range aU.Edges {
		inA[e] = true
	}
	shared := 0
	for _, e := range bU.Edges {
		if inA[e] {
			shared++
		}
	}
	if shared != 2 {
		t.Errorf("units A and B share %d edges, want 2 (the r-branch arms)\n%s", shared, f.String())
	}

	// Both units read and write SV (it is accessed in the tail arms).
	sv := p.Info.GlobalByName("SV").GlobalID
	for name, u := range map[string]*SyncUnit{"A": aU, "B": bU} {
		if !u.Reads.Has(sv) {
			t.Errorf("unit %s reads = %s, want SV(%d)", name, u.Reads, sv)
		}
		if !u.Write.Has(sv) {
			t.Errorf("unit %s writes = %s, want SV(%d)", name, u.Write, sv)
		}
	}
	// The entry unit must not claim SV: no shared access before sync0.
	if entryU.Reads.Has(sv) || entryU.Write.Has(sv) {
		t.Errorf("entry unit should not touch SV: reads=%s writes=%s", entryU.Reads, entryU.Write)
	}
}

func TestUnitSharedReadsRespectBranchPredicates(t *testing.T) {
	p := build(t, `
shared SV;
sem s;
func main() {
	P(s);
	if (SV > 0) { print(1); }
	V(s);
}`)
	f := p.Funcs["main"]
	sv := p.Info.GlobalByName("SV").GlobalID
	pNode := nodeOf(t, f, "P(s)")
	u := f.Simple.UnitAt(pNode)
	if u == nil {
		t.Fatalf("no unit at P(s)\n%s", f.String())
	}
	if !u.Reads.Has(sv) {
		t.Errorf("unit at P(s) must read SV via the branch predicate; reads=%s", u.Reads)
	}
}

func TestLoopStaysInsideOneUnit(t *testing.T) {
	p := build(t, `
shared SV;
sem s;
func main() {
	P(s);
	var i = 0;
	while (i < 10) {
		SV = SV + i;
		i = i + 1;
	}
	V(s);
}`)
	f := p.Funcs["main"]
	pNode := nodeOf(t, f, "P(s)")
	u := f.Simple.UnitAt(pNode)
	sv := p.Info.GlobalByName("SV").GlobalID
	if !u.Reads.Has(sv) || !u.Write.Has(sv) {
		t.Errorf("loop body accesses must fold into the enclosing unit: %s/%s", u.Reads, u.Write)
	}
	// The V(s) node starts its own (possibly empty) unit.
	vU := f.Simple.UnitAt(nodeOf(t, f, "V(s)"))
	if vU == nil {
		t.Fatal("no unit at V(s)")
	}
	if vU.Reads.Has(sv) {
		t.Error("unit after loop must not re-claim loop reads")
	}
}

func TestEveryFunctionHasEntryUnit(t *testing.T) {
	p := build(t, `
func f(x int) int { return x + 1; }
func main() { var v = f(2); print(v); }`)
	for name, f := range p.Funcs {
		if f.Simple.UnitAt(cfg.EntryNode) == nil {
			t.Errorf("%s: missing entry unit", name)
		}
	}
}

func TestSharedMaskExcludesSemsAndChans(t *testing.T) {
	p := build(t, `
var g;
sem s;
chan c;
func main() { g = 1; }`)
	if p.SharedMask.Count() != 1 {
		t.Errorf("shared mask = %s, want only g", p.SharedMask)
	}
	if !p.SharedMask.Has(p.Info.GlobalByName("g").GlobalID) {
		t.Error("g missing from shared mask")
	}
}

package compile

import (
	"strings"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/source"
)

func mustCompile(t *testing.T, src string, cfg eblock.Config) *Artifacts {
	t.Helper()
	art, err := Compile(source.NewFile("test.mpl", src), Opts{Config: cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return art
}

func TestFrontEndErrorsPropagate(t *testing.T) {
	cases := []string{
		`func main() { x = ; }`,      // parse error
		`func main() { y = 1; }`,     // undeclared
		`func f() {}`,                // no main
		"var g = h;\nfunc main() {}", // undeclared in initializer
	}
	for _, src := range cases {
		if _, err := Compile(source.NewFile("bad.mpl", src), Opts{}); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestNonConstGlobalInitializerRejected(t *testing.T) {
	_, err := Compile(source.NewFile("nc.mpl", `
var a = 1;
var b = a + 1;
func main() {}`), Opts{})
	if err == nil || !strings.Contains(err.Error(), "constant expression") {
		t.Errorf("err = %v", err)
	}
}

func TestConstEval(t *testing.T) {
	art := mustCompile(t, `
var a = 2 + 3 * 4;
var b = -(10 / 2);
var c = 17 % 5;
sem s = (1 + 1);
func main() {}`, eblock.Config{})
	wants := map[string]int64{"a": 14, "b": -5, "c": 2, "s": 2}
	for _, g := range art.Prog.Globals {
		if want, ok := wants[g.Name]; ok {
			if g.Init != want {
				t.Errorf("%s init = %d, want %d", g.Name, g.Init, want)
			}
		}
	}
}

func TestMarkerPlacementFunctions(t *testing.T) {
	art := mustCompile(t, `
func f(a int) int { return a * 2; }
func main() { print(f(1)); }`, eblock.Config{})
	f := art.Prog.FuncByName("f")
	if f.Code[0].Op != bytecode.OpPrelog {
		t.Errorf("f must start with prelog, got %v", f.Code[0].Op)
	}
	// Postlog immediately before the RetValue.
	foundPost := false
	for i, in := range f.Code {
		if in.Op == bytecode.OpRetValue {
			if i > 0 && f.Code[i-1].Op == bytecode.OpPostlog && f.Code[i-1].B == 1 {
				foundPost = true
			}
		}
	}
	if !foundPost {
		t.Errorf("f's return lacks a postlog with ret-on-stack:\n%s", f.Disasm())
	}
}

func TestMarkerPlacementLoopBlocks(t *testing.T) {
	art := mustCompile(t, `
func main() {
	var s = 0;
	for (var i = 0; i < 50; i = i + 1) {
		var a = i; var b = a; var c = b; var d = c;
		s = s + d;
	}
	print(s);
}`, eblock.Config{LoopBlockMinStmts: 4})
	if len(art.Plan.ByLoop) != 1 {
		t.Fatalf("no loop block:\n%s", art.Plan)
	}
	m := art.Prog.FuncByName("main")
	var loopMeta *bytecode.BlockMeta
	for _, b := range art.Prog.Blocks {
		if b.Kind == bytecode.BlockLoop {
			loopMeta = b
		}
	}
	if loopMeta == nil {
		t.Fatal("no loop block meta")
	}
	if m.Code[loopMeta.PrelogPC].Op != bytecode.OpPrelog {
		t.Errorf("PrelogPC %d is %v", loopMeta.PrelogPC, m.Code[loopMeta.PrelogPC].Op)
	}
	if m.Code[loopMeta.PostPC].Op != bytecode.OpPostlog {
		t.Errorf("PostPC %d is %v", loopMeta.PostPC, m.Code[loopMeta.PostPC].Op)
	}
	if loopMeta.PrelogPC >= loopMeta.PostPC {
		t.Error("prelog must precede postlog")
	}
}

func TestBareHasNoMarkers(t *testing.T) {
	src := `
sem s = 1;
shared sv;
func w() { P(s); sv = sv + 1; V(s); }
func main() { spawn w(); }`
	bare, err := CompileBare(source.NewFile("b.mpl", src))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range bare.Prog.Funcs {
		for _, in := range f.Code {
			switch in.Op {
			case bytecode.OpPrelog, bytecode.OpPostlog, bytecode.OpShPrelog:
				t.Fatalf("bare code contains marker %v in %s", in.Op, f.Name)
			}
		}
	}
}

func TestUnitTablesForCrossWrites(t *testing.T) {
	art := mustCompile(t, `
shared sv;
sem done = 0;
func w() { sv = 1; V(done); }
func main() {
	spawn w();
	P(done);
	print(sv);
}`, eblock.Config{})
	m := art.Prog.FuncByName("main")
	// Main's unit after P(done) reads sv (written by the worker): one unit
	// entry containing sv's GlobalID.
	found := false
	svID := art.Info.GlobalByName("sv").GlobalID
	for _, u := range m.Units {
		for _, gid := range u.Globals {
			if gid == svID {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("main's unit table lacks sv: %+v", m.Units)
	}
	// The worker's own writes don't need unit entries for sv unless it
	// reads sv... it does (sv = 1 is write-only), so w should have no
	// cross-read unit with sv.
	w := art.Prog.FuncByName("w")
	for _, u := range w.Units {
		for _, gid := range u.Globals {
			if gid == svID {
				t.Errorf("w logs sv it never reads: %+v", w.Units)
			}
		}
	}
}

func TestStringInterning(t *testing.T) {
	art := mustCompile(t, `
func main() {
	print("hi");
	print("hi");
	print("bye");
}`, eblock.Config{})
	if len(art.Prog.Strings) != 2 {
		t.Errorf("strings = %v, want deduplicated [hi bye]", art.Prog.Strings)
	}
}

func TestShortCircuitJumpShape(t *testing.T) {
	art := mustCompile(t, `
func main() {
	var a = 1;
	if (a > 0 && a < 10) { print(a); }
}`, eblock.Config{})
	m := art.Prog.FuncByName("main")
	// Exactly one predicate-tagged JmpFalse (B=1), the if's main test;
	// the && uses an internal B=0 jump.
	pred, internal := 0, 0
	for _, in := range m.Code {
		if in.Op == bytecode.OpJmpFalse {
			if in.B == 1 {
				pred++
			} else {
				internal++
			}
		}
	}
	if pred != 1 || internal != 1 {
		t.Errorf("jmpf pred=%d internal=%d, want 1/1:\n%s", pred, internal, m.Disasm())
	}
}

func TestDisasmReadable(t *testing.T) {
	art := mustCompile(t, `
func main() { var x = 1 + 2; print(x); }`, eblock.Config{})
	d := art.Prog.Disasm()
	for _, want := range []string{"func main", "const", "add", "storel", "prval", "; s"} {
		if !strings.Contains(d, want) {
			t.Errorf("disasm missing %q:\n%s", want, d)
		}
	}
}

func TestStmtTagsCoverCode(t *testing.T) {
	art := mustCompile(t, `
func f(n int) int {
	var s = 0;
	while (s < n) { s = s + 1; }
	return s;
}
func main() { print(f(3)); }`, eblock.Config{})
	for _, f := range art.Prog.Funcs {
		for pc, in := range f.Code {
			switch in.Op {
			case bytecode.OpPrelog, bytecode.OpPostlog, bytecode.OpRet, bytecode.OpRetValue, bytecode.OpConst:
				continue // epilogue/prologue instructions may be untagged
			}
			if in.Stmt == ast.NoStmt {
				t.Errorf("%s pc %d (%v) untagged", f.Name, pc, in.Op)
			}
		}
	}
}

func TestUnfilteredSharedPrelogsSuperset(t *testing.T) {
	// The literal-§5.5 variant must log at least everything the filtered
	// build logs, and strictly more for single-process shared access.
	src := `
shared sv;
sem s = 1;
func main() {
	P(s);
	sv = sv + 1;
	var x = sv;
	V(s);
	print(x);
}`
	filtered := mustCompile(t, src, eblock.Config{})
	lit, err := compileUnfiltered(filtered.File, eblock.Config{})
	if err != nil {
		t.Fatal(err)
	}
	count := func(a *Artifacts) int {
		n := 0
		for _, f := range a.Prog.Funcs {
			for _, u := range f.Units {
				n += len(u.Globals)
			}
		}
		return n
	}
	if count(filtered) != 0 {
		t.Errorf("single-process program should need no shared prelogs, got %d entries", count(filtered))
	}
	if count(lit) == 0 {
		t.Error("literal variant should log the unit reads")
	}
}

func TestCompileWithObsReportsArtifactSizes(t *testing.T) {
	sink := obs.New()
	src := `
shared sv;
sem done = 0;
func w() { sv = sv + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); print(sv); }`
	art, err := Compile(source.NewFile("obs.mpl", src), Opts{Config: eblock.DefaultConfig(), Sink: sink})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	snap := sink.Snapshot()
	if got := snap.Counter("compile.funcs"); got != int64(len(art.Prog.Funcs)) {
		t.Errorf("compile.funcs = %d, want %d", got, len(art.Prog.Funcs))
	}
	if got := snap.Counter("compile.instrs"); got != int64(art.Prog.NumInstrs()) {
		t.Errorf("compile.instrs = %d, want %d", got, art.Prog.NumInstrs())
	}
	if got := snap.Counter("compile.eblocks"); got != int64(len(art.Plan.Blocks)) {
		t.Errorf("compile.eblocks = %d, want %d", got, len(art.Plan.Blocks))
	}
	if snap.Counter("compile.pdg.units") == 0 || snap.Counter("compile.pdg.edges") == 0 {
		t.Error("static PDG sizes not reported")
	}
	if snap.Counter("compile.shprelog.sites") == 0 {
		t.Error("shared-prelog sites not reported (program has a shared variable)")
	}
	// Every pass reported a timing, and the passes nest inside the total.
	for _, name := range []string{"compile.parse", "compile.check", "compile.pdg",
		"compile.eblock", "compile.progdb", "compile.codegen", "compile.total"} {
		if snap.Timer(name).Count != 1 {
			t.Errorf("timer %s observed %d times, want 1", name, snap.Timer(name).Count)
		}
	}
}

func TestCompileWithObsNilSinkMatchesCompile(t *testing.T) {
	src := `func main() { print(2); }`
	a, err := Compile(source.NewFile("a.mpl", src), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(source.NewFile("a.mpl", src), Opts{Sink: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Prog.Disasm() != b.Prog.Disasm() {
		t.Error("an observed compile produced different bytecode than an unobserved one")
	}
}

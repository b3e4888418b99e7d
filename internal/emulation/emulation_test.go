package emulation

import (
	"ppd/internal/source"
	"strings"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/trace"
	"ppd/internal/vm"
)

// logRun compiles src, runs it in ModeLog, and returns the artifacts + VM.
func logRun(t *testing.T, src string, cfg eblock.Config, opts vm.Options) (*compile.Artifacts, *vm.VM) {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{Config: cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts.Mode = vm.ModeLog
	v := vm.New(art.Prog, opts)
	_ = v.Run() // failures are part of some tests
	return art, v
}

func blockIDOf(t *testing.T, art *compile.Artifacts, fn string) int {
	t.Helper()
	b := art.Plan.ByFunc[fn]
	if b == nil {
		t.Fatalf("no e-block for %s", fn)
	}
	return int(b.ID)
}

func TestEmulateSimpleFunction(t *testing.T) {
	art, v := logRun(t, `
var g = 10;
func f(a int, b int) int {
	var s = a + b;
	g = g + s;
	return s * 2;
}
func main() {
	print(f(3, 4));
}`, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	idxs := em.PrelogIndices(blockIDOf(t, art, "f"))
	if len(idxs) != 1 {
		t.Fatalf("f intervals = %d, want 1", len(idxs))
	}
	res, err := em.Emulate(idxs[0])
	if err != nil || res.Err != nil {
		t.Fatalf("emulate: %v / %v", err, res.Err)
	}
	if !res.Completed {
		t.Error("interval should complete")
	}
	ts := res.Trace.String()
	for _, want := range []string{"write", "read"} {
		if !strings.Contains(ts, want) {
			t.Errorf("trace missing %q:\n%s", want, ts)
		}
	}
	// Final global state must reflect g = 10 + 7.
	if res.Globals[0].Int != 17 {
		t.Errorf("g after emulation = %d, want 17", res.Globals[0].Int)
	}
}

func TestEmulationMatchesFullTrace(t *testing.T) {
	// The paper's core equivalence: emulating an e-block must produce the
	// same local events a full execution trace would contain.
	src := `
var g = 2;
func work(n int) int {
	var s = 0;
	var i = 0;
	while (i < n) {
		s = s + i * g;
		i = i + 1;
	}
	return s;
}
func main() { print(work(4)); }`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})

	em := New(art.Prog, v.Log.Books[0])
	idxs := em.PrelogIndices(blockIDOf(t, art, "work"))
	res, err := em.Emulate(idxs[0])
	if err != nil || res.Err != nil {
		t.Fatalf("emulate: %v / %v", err, res.Err)
	}

	// Reference: full-trace execution, extract the work() segment.
	vt := vm.New(art.Prog, vm.Options{Mode: vm.ModeFullTrace})
	if err := vt.Run(); err != nil {
		t.Fatal(err)
	}
	full := vt.Trace.Buffers[0]
	var seg []trace.Event
	depth := 0
	for _, e := range full.Events {
		switch e.Kind {
		case trace.EvCallBegin:
			depth++
			continue
		case trace.EvCallEnd:
			depth--
			continue
		}
		if depth == 1 {
			seg = append(seg, e)
		}
	}
	// Compare the emulated trace's non-end events against the segment.
	var emu []trace.Event
	for _, e := range res.Trace.Events {
		if e.Kind != trace.EvEnd {
			emu = append(emu, e)
		}
	}
	if len(emu) != len(seg) {
		t.Fatalf("emulated %d events, full trace segment has %d\nemu:\n%s",
			len(emu), len(seg), res.Trace)
	}
	for i := range emu {
		a, b := emu[i], seg[i]
		if a.Kind != b.Kind || a.Stmt != b.Stmt || a.Var != b.Var || a.Value != b.Value {
			t.Errorf("event %d: emu=%+v full=%+v", i, a, b)
		}
	}
}

func TestNestedIntervalSubstitution(t *testing.T) {
	// §5.2: emulating the caller must substitute the callee's postlog, not
	// re-execute it.
	src := `
var g;
func subK(v int) int {
	g = g + v;
	return g * 10;
}
func subJ(a int) int {
	var x = a + 1;
	var y = subK(x);
	return y + g;
}
func main() { print(subJ(5)); }`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])

	res, err := em.Emulate(em.PrelogIndices(blockIDOf(t, art, "subJ"))[0])
	if err != nil || res.Err != nil {
		t.Fatalf("emulate: %v / %v", err, res.Err)
	}
	ts := res.Trace.String()
	if !strings.Contains(ts, "call-skipped") {
		t.Errorf("callee must be substituted, not re-executed:\n%s", ts)
	}
	// The result must still be correct: g=6, subK returns 60, subJ=66.
	// Verify via the traced write of y.
	if !res.Completed {
		t.Error("interval should complete")
	}
	if res.Globals[0].Int != 6 {
		t.Errorf("g = %d, want 6", res.Globals[0].Int)
	}
}

func TestEmulateCalleeDetail(t *testing.T) {
	// After substitution, the user can still drill into the callee by
	// emulating the callee's own interval (the paper's sub-graph node
	// expansion).
	src := `
var g;
func subK(v int) int {
	g = g + v;
	return g * 10;
}
func main() {
	var a = subK(3);
	var b = subK(4);
	print(a + b);
}`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	idxs := em.PrelogIndices(blockIDOf(t, art, "subK"))
	if len(idxs) != 2 {
		t.Fatalf("subK intervals = %d, want 2", len(idxs))
	}
	// Second instance: g was 3 at entry, becomes 7, returns 70.
	res, err := em.Emulate(idxs[1])
	if err != nil || res.Err != nil {
		t.Fatalf("emulate: %v / %v", err, res.Err)
	}
	if res.Globals[0].Int != 7 {
		t.Errorf("g = %d, want 7", res.Globals[0].Int)
	}
}

func TestRecvReplaysLoggedValue(t *testing.T) {
	src := `
chan c;
func producer() { send(c, 99); }
func main() {
	spawn producer();
	var v = recv(c);
	print(v * 2);
}`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{Quantum: 1})
	em := New(art.Prog, v.Log.Books[0])
	res, err := em.Emulate(em.PrelogIndices(blockIDOf(t, art, "main"))[0])
	if err != nil || res.Err != nil {
		t.Fatalf("emulate: %v / %v", err, res.Err)
	}
	if !strings.Contains(res.Trace.String(), "=99") {
		t.Errorf("recv value not replayed:\n%s", res.Trace)
	}
}

func TestSharedPrelogHealsDivergence(t *testing.T) {
	// Two processes increment sv under a semaphore. Emulating one process's
	// interval must see the other's writes via the shared prelogs, ending
	// with the same sv value the real execution produced.
	src := `
shared sv;
sem m = 1;
sem done = 0;
func w(k int) {
	var i = 0;
	while (i < 3) {
		P(m);
		sv = sv + k;
		V(m);
		i = i + 1;
	}
	V(done);
}
func main() {
	spawn w(1);
	spawn w(100);
	P(done);
	P(done);
	print(sv);
}`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{Quantum: 1, Seed: 3})
	if v.Failure != nil {
		t.Fatalf("run failed: %v", v.Failure)
	}
	// Emulate worker 1's whole interval.
	em := New(art.Prog, v.Log.Books[1])
	res, err := em.Emulate(em.PrelogIndices(blockIDOf(t, art, "w"))[0])
	if err != nil || res.Err != nil {
		t.Fatalf("emulate: %v / %v", err, res.Err)
	}
	if !res.Completed {
		t.Fatal("worker interval should complete")
	}
	// After the worker's final V(m), its view of sv came from its last
	// shared prelog + its own updates; the emulated final sv must equal
	// what the worker observed, which is consistent only if shared prelogs
	// were applied. Without healing, sv would be at most 3.
	if res.Globals[0].Int < 100 {
		t.Errorf("sv = %d; shared prelogs were not applied", res.Globals[0].Int)
	}
}

func TestFindLastOpenPrelog(t *testing.T) {
	src := `
var g;
func crash(v int) int {
	g = v;
	return v / (v - v);
}
func main() {
	var x = crash(7);
	print(x);
}`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})
	if v.Failure == nil {
		t.Fatal("expected a failure")
	}
	em := New(art.Prog, v.Log.Books[0])
	open := em.FindLastOpenPrelog()
	if open < 0 {
		t.Fatal("no open prelog found")
	}
	rec := v.Log.Books[0].Records[open]
	if int(rec.Block) != blockIDOf(t, art, "crash") {
		t.Errorf("open prelog block = %d, want crash's", rec.Block)
	}
	// Emulating the open interval must reproduce the failure.
	res, err := em.Emulate(open)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("interval must not complete")
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "division by zero") {
		t.Errorf("emulation should reproduce the failure, got %v", res.Err)
	}
}

func TestReexecuteOpenCallee(t *testing.T) {
	// Emulating the CALLER of a halted callee: substitution is impossible
	// (no postlog), so the callee re-executes and the failure reproduces.
	src := `
var g;
func crash(v int) int {
	g = v;
	return v / 0;
}
func main() {
	var x = crash(7);
	print(x);
}`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	res, err := em.Emulate(em.PrelogIndices(blockIDOf(t, art, "main"))[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "division by zero") {
		t.Errorf("re-execution should reproduce the failure, got %v", res.Err)
	}
	if !strings.Contains(res.Trace.String(), "call f") && !strings.Contains(res.Trace.String(), "call s") {
		// EvCallBegin renders as "call s<id> f<idx>".
		t.Logf("trace:\n%s", res.Trace)
	}
}

func TestLoopBlockSubstitution(t *testing.T) {
	src := `
var g;
func main() {
	var s = 0;
	for (var i = 0; i < 50; i = i + 1) {
		var a = i * 2;
		var b = a + 1;
		var c = b * b;
		var d = c - a;
		s = s + d;
		g = g + 1;
	}
	print(s);
}`
	art, v := logRun(t, src, eblock.Config{LoopBlockMinStmts: 5}, vm.Options{})
	if len(art.Plan.ByLoop) != 1 {
		t.Fatalf("expected a loop block:\n%s", art.Plan)
	}
	em := New(art.Prog, v.Log.Books[0])

	// Emulating main must skip the loop via postlog substitution.
	res, err := em.Emulate(em.PrelogIndices(blockIDOf(t, art, "main"))[0])
	if err != nil || res.Err != nil {
		t.Fatalf("emulate main: %v / %v", err, res.Err)
	}
	ts := res.Trace.String()
	if !strings.Contains(ts, "call-skipped") {
		t.Errorf("loop should be substituted:\n%s", ts)
	}
	if res.Globals[0].Int != 50 {
		t.Errorf("g = %d, want 50 (from loop postlog)", res.Globals[0].Int)
	}
	// The emulated trace must NOT contain the loop body's per-iteration
	// events.
	if strings.Count(ts, "write") > 20 {
		t.Errorf("loop body appears to have re-executed:\n%s", ts)
	}

	// Drilling into the loop: emulate the loop block itself.
	var loopBlock int
	for _, b := range art.Plan.ByLoop {
		loopBlock = int(b.ID)
	}
	idxs := em.PrelogIndices(loopBlock)
	if len(idxs) != 1 {
		t.Fatalf("loop intervals = %d, want 1", len(idxs))
	}
	res2, err := em.Emulate(idxs[0])
	if err != nil || res2.Err != nil {
		t.Fatalf("emulate loop: %v / %v", err, res2.Err)
	}
	if !res2.Completed {
		t.Error("loop interval should complete")
	}
	// Now the iterations ARE re-executed.
	if got := strings.Count(res2.Trace.String(), "pred"); got != 51 {
		t.Errorf("loop emulation predicates = %d, want 51", got)
	}
}

func TestEmulationConsumedRecordCount(t *testing.T) {
	src := `
var g;
func f() { g = g + 1; }
func main() { f(); f(); }`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	res, err := em.Emulate(em.PrelogIndices(blockIDOf(t, art, "main"))[0])
	if err != nil || res.Err != nil {
		t.Fatal(err)
	}
	// main's interval: its prelog + 2×(f prelog,f postlog) + main postlog.
	if res.RecordsConsumed != 6 {
		t.Errorf("records consumed = %d, want 6", res.RecordsConsumed)
	}
}

func TestEmulateInvalidIndex(t *testing.T) {
	art, v := logRun(t, `func main() { print(1); }`, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	if _, err := em.Emulate(-1); err == nil {
		t.Error("want error for negative index")
	}
	if _, err := em.Emulate(0); err == nil {
		t.Error("want error for non-prelog record (start)")
	}
	_ = logging.RecStart
}

func TestEmulateFreshMatchesFaithfulWithoutOverrides(t *testing.T) {
	src := `
var g = 3;
func helper(v int) int { g = g + v; return g * 2; }
func main() {
	var a = helper(4);
	var b = helper(a);
	print(b);
}`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	idx := em.PrelogIndices(blockIDOf(t, art, "main"))[0]

	faithful, err := em.Emulate(idx)
	if err != nil || faithful.Err != nil {
		t.Fatalf("faithful: %v/%v", err, faithful.Err)
	}
	fresh, err := em.EmulateFresh(idx, nil)
	if err != nil || fresh.Err != nil {
		t.Fatalf("fresh: %v/%v", err, fresh.Err)
	}
	if !fresh.Completed {
		t.Error("fresh replay should complete")
	}
	if fresh.Trace != nil {
		t.Error("the pooled what-if replay must record no trace")
	}
	// Same final globals either way when nothing is overridden.
	for gid := range faithful.Globals {
		fv, gv := faithful.Globals[gid], fresh.Globals[gid]
		if !fv.IsArray() && fv.Int != gv.Int {
			t.Errorf("global %d: faithful=%d fresh=%d", gid, fv.Int, gv.Int)
		}
	}
	// The fresh replay does more: callees re-execute instead of being
	// substituted. The traced oracle shows it as a longer trace, and it
	// runs the same instructions as the untraced replay.
	em.Generic = true
	oracle, err := em.EmulateFresh(idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Trace.Len() <= faithful.Trace.Len() {
		t.Errorf("fresh trace (%d events) should exceed faithful (%d)",
			oracle.Trace.Len(), faithful.Trace.Len())
	}
	if fresh.Steps <= faithful.Steps || fresh.Steps != oracle.Steps {
		t.Errorf("steps: fresh %d, oracle %d, faithful %d; want fresh = oracle > faithful",
			fresh.Steps, oracle.Steps, faithful.Steps)
	}
}

func TestEmulateFreshRecursiveRoot(t *testing.T) {
	src := `
func fact(n int) int {
	if (n <= 1) { return 1; }
	return n * fact(n - 1);
}
func main() { print(fact(5)); }`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	// Fresh-emulate the OUTERMOST fact interval: the recursion re-executes
	// entirely (depth counting on the root block id).
	idx := em.PrelogIndices(blockIDOf(t, art, "fact"))[0]
	res, err := em.EmulateFresh(idx, nil)
	if err != nil || res.Err != nil {
		t.Fatalf("fresh: %v/%v", err, res.Err)
	}
	if !res.Completed {
		t.Error("recursive fresh replay should complete")
	}
}

func TestEmulateFreshRecvReplay(t *testing.T) {
	src := `
chan c;
func producer() { send(c, 5); send(c, 7); }
func main() {
	spawn producer();
	var a = recv(c);
	var b = recv(c);
	print(a * b);
}`
	art, v := logRun(t, src, eblock.Config{}, vm.Options{Quantum: 1})
	em := New(art.Prog, v.Log.Books[0])
	em.Generic = true // the values show in the oracle's trace
	idx := em.PrelogIndices(blockIDOf(t, art, "main"))[0]
	res, err := em.EmulateFresh(idx, nil)
	if err != nil || res.Err != nil {
		t.Fatalf("fresh: %v/%v", err, res.Err)
	}
	ts := res.Trace.String()
	if !strings.Contains(ts, "=5") || !strings.Contains(ts, "=7") {
		t.Errorf("recv values not replayed in order:\n%s", ts)
	}
}

func TestEmulateFreshErrors(t *testing.T) {
	art, v := logRun(t, `func main() { print(1); }`, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	if _, err := em.EmulateFresh(-1, nil); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := em.EmulateFresh(0, nil); err == nil {
		t.Error("non-prelog record should fail")
	}
}

func TestFirstPrelog(t *testing.T) {
	art, v := logRun(t, `
func f() { print(1); }
func main() { f(); }`, eblock.Config{}, vm.Options{})
	em := New(art.Prog, v.Log.Books[0])
	first := em.FirstPrelog()
	if first < 0 {
		t.Fatal("no first prelog")
	}
	rec := v.Log.Books[0].Records[first]
	if int(rec.Block) != blockIDOf(t, art, "main") {
		t.Errorf("first prelog block = %d, want main's", rec.Block)
	}
	empty := New(art.Prog, &logging.Book{})
	if empty.FirstPrelog() != -1 || empty.LastPrelog() != -1 {
		t.Error("empty book should report -1")
	}
}

package vm

import (
	"bytes"
	"strings"
	"testing"

	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/source"
)

// run compiles and executes src, returning the VM and its print output.
func run(t *testing.T, src string, opts Options) (*VM, string) {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out bytes.Buffer
	opts.Output = &out
	v := New(art.Prog, opts)
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	return v, out.String()
}

// runErr runs expecting a failure.
func runErr(t *testing.T, src string, opts Options) (*VM, error) {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out bytes.Buffer
	opts.Output = &out
	v := New(art.Prog, opts)
	rerr := v.Run()
	if rerr == nil {
		t.Fatalf("expected runtime error, got none; output:\n%s", out.String())
	}
	return v, rerr
}

func TestArithmetic(t *testing.T) {
	_, out := run(t, `
func main() {
	print(2 + 3 * 4);
	print(10 / 3, " ", 10 % 3);
	print(-5 + 2);
	print((2 + 3) * 4);
}`, Options{})
	want := "14\n3 1\n-3\n20\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	_, out := run(t, `
func main() {
	if (1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3 && 1 == 1 && 1 != 2) { print("ok"); }
	if (1 > 2 || 2 == 2) { print("or"); }
	if (!(1 > 2)) { print("not"); }
}`, Options{})
	if out != "ok\nor\nnot\n" {
		t.Errorf("output = %q", out)
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand must not evaluate when the left decides: a div-by-
	// zero in the right operand would fail the run.
	_, out := run(t, `
func boom() int { return 1 / 0; }
func main() {
	var x = 0;
	if (x == 0 || boom() == 1) { print("sc-or"); }
	if (x == 1 && boom() == 1) { print("never"); } else { print("sc-and"); }
}`, Options{})
	if out != "sc-or\nsc-and\n" {
		t.Errorf("output = %q", out)
	}
}

func TestWhileForBreakContinue(t *testing.T) {
	_, out := run(t, `
func main() {
	var s = 0;
	for (var i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) { continue; }
		if (i > 7) { break; }
		s = s + i;
	}
	print(s);
	var n = 3;
	while (n > 0) { n = n - 1; }
	print(n);
}`, Options{})
	if out != "16\n0\n" { // 1+3+5+7
		t.Errorf("output = %q", out)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	_, out := run(t, `
func fib(n int) int {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
func main() { print(fib(15)); }`, Options{})
	if out != "610\n" {
		t.Errorf("fib(15) = %q, want 610", out)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	_, out := run(t, `
var g = 7;
shared arr[5];
func bump(i int) { arr[i] = arr[i] + g; }
func main() {
	var i = 0;
	while (i < 5) { bump(i); i = i + 1; }
	arr[2] = arr[2] * 2;
	print(arr[0], " ", arr[2], " ", arr[4]);
}`, Options{})
	if out != "7 14 7\n" {
		t.Errorf("output = %q", out)
	}
}

func TestLocalArrays(t *testing.T) {
	_, out := run(t, `
func main() {
	var a[4];
	a[0] = 3;
	a[3] = a[0] * 2;
	print(a[0] + a[3]);
}`, Options{})
	if out != "9\n" {
		t.Errorf("output = %q", out)
	}
}

func TestBoolValues(t *testing.T) {
	_, out := run(t, `
func main() {
	var b = true;
	var c = false;
	if (b) { print(1); }
	if (!c) { print(2); }
}`, Options{})
	if out != "1\n2\n" {
		t.Errorf("output = %q", out)
	}
}

// failureDrivers are the slice drivers a failure must look identical
// under: the table driver in ModeRun and ModeLog (plain and profiled), and
// the generic loop under ModeFullTrace and under a breakpoint that is
// never hit.
var failureDrivers = []struct {
	name    string
	opts    Options
	profile bool // attach the dispatch profiler
}{
	{"run", Options{Mode: ModeRun}, false},
	{"run-profiled", Options{Mode: ModeRun}, true},
	{"log", Options{Mode: ModeLog}, false},
	{"fulltrace", Options{Mode: ModeFullTrace}, false},
	{"run-break", Options{Mode: ModeRun, BreakAt: 1 << 30}, false},
	{"log-break", Options{Mode: ModeLog, BreakAt: 1 << 30}, false},
}

// failureParity runs src under every failure driver, after forge (if any)
// has edited the compiled program, and asserts that all of them report the
// same failure after the same number of steps, and that the table-driven
// and generic ModeLog runs write byte-identical logs. It returns the
// failure and the profiled run's dispatch profile.
func failureParity(t *testing.T, src string, forge func(*bytecode.Program)) (*RuntimeError, *obs.OpStats) {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if forge != nil {
		forge(art.Prog)
	}
	var (
		want      RuntimeError
		wantSteps int64
		logs      = map[string][]byte{}
		prof      = obs.NewOpStats(int(bytecode.NumOps), int(bytecode.NumSuperOps))
	)
	for i, d := range failureDrivers {
		opts := d.opts
		if d.profile {
			opts.OpProfile = prof
		}
		v := New(art.Prog, opts)
		if v.Run() == nil || v.Failure == nil {
			t.Fatalf("%s: expected a runtime failure", d.name)
		}
		if i == 0 {
			want, wantSteps = *v.Failure, v.Steps
		} else if *v.Failure != want || v.Steps != wantSteps {
			t.Errorf("%s: failure %+v after %d steps, want %+v after %d (run)", d.name, *v.Failure, v.Steps, want, wantSteps)
		}
		if v.Log != nil {
			var buf bytes.Buffer
			if err := v.Log.Write(&buf); err != nil {
				t.Fatal(err)
			}
			logs[d.name] = buf.Bytes()
		}
	}
	if !bytes.Equal(logs["log"], logs["log-break"]) {
		t.Errorf("table-driven ModeLog log differs from the generic loop's")
	}
	return &want, prof
}

// forgeWindow installs a superinstruction over the first window of main
// whose opcodes are shape, as a wrong certificate (say, from a corrupt
// cache entry) would, so the fused handler meets the failure the abstract
// interpreter would have ruled out.
func forgeWindow(t *testing.T, shape []bytecode.Op, sup func(win []bytecode.Instr) bytecode.SuperInstr) func(*bytecode.Program) {
	return func(prog *bytecode.Program) {
		fn := prog.Funcs[prog.MainIdx]
	scan:
		for pc := 0; pc+len(shape) <= len(fn.Code); pc++ {
			for i, op := range shape {
				if fn.Code[pc+i].Op != op {
					continue scan
				}
			}
			if fn.Super == nil {
				fn.Super = make([]bytecode.SuperInstr, len(fn.Code))
			}
			fn.Super[pc] = sup(fn.Code[pc : pc+len(shape)])
			return
		}
		t.Fatalf("no %v window in main", shape)
	}
}

func TestDivideByZeroFailure(t *testing.T) {
	f, _ := failureParity(t, `
func main() {
	var x = 0;
	print(1 / x);
}`, nil)
	if f.Msg != "division by zero" || f.PID != 0 {
		t.Errorf("failure = %+v", f)
	}
}

func TestArrayBoundsFailure(t *testing.T) {
	f, _ := failureParity(t, `
shared a[3];
func main() { a[5] = 1; }`, nil)
	if !strings.Contains(f.Msg, "out of range") {
		t.Errorf("failure = %+v", f)
	}
}

// TestFusedFailureSites drives the certificate-gated superinstructions
// that touch a global into their failure paths: each must report the
// single-op failure site and step count under every driver.
func TestFusedFailureSites(t *testing.T) {
	t.Run("lgdiv", func(t *testing.T) {
		forge := forgeWindow(t, []bytecode.Op{bytecode.OpLoadLocal, bytecode.OpLoadGlobal, bytecode.OpDiv},
			func(win []bytecode.Instr) bytecode.SuperInstr {
				return bytecode.SuperInstr{Op: bytecode.SuperLGDiv, W: 3, Bin: bytecode.OpDiv, A: win[0].A, B: win[1].A}
			})
		f, prof := failureParity(t, `
shared g;
func main() {
	var x = 7;
	print(x / g);
}`, forge)
		if f.Msg != "division by zero" {
			t.Errorf("failure = %+v", f)
		}
		if prof.Super[bytecode.SuperLGDiv] == 0 {
			t.Errorf("the forged lgdiv window was never dispatched")
		}
	})
	t.Run("idxstoreg", func(t *testing.T) {
		forge := forgeWindow(t, []bytecode.Op{bytecode.OpLoadLocal, bytecode.OpLoadLocal, bytecode.OpStoreIndexedG},
			func(win []bytecode.Instr) bytecode.SuperInstr {
				return bytecode.SuperInstr{Op: bytecode.SuperIdxStoreG, W: 3, A: win[2].A, B: win[0].A, C: win[1].A}
			})
		f, prof := failureParity(t, `
shared a[3];
func main() {
	var i = 5;
	var v = 1;
	a[i] = v;
}`, forge)
		if !strings.Contains(f.Msg, "out of range") {
			t.Errorf("failure = %+v", f)
		}
		if prof.Super[bytecode.SuperIdxStoreG] == 0 {
			t.Errorf("the forged idxstoreg window was never dispatched")
		}
	})
}

func TestSpawnAndSemaphores(t *testing.T) {
	// Counter protected by a binary semaphore: no lost updates regardless
	// of seed.
	src := `
shared counter;
sem mutex = 1;
sem done = 0;
func worker(n int) {
	var i = 0;
	while (i < n) {
		P(mutex);
		counter = counter + 1;
		V(mutex);
		i = i + 1;
	}
	V(done);
}
func main() {
	spawn worker(50);
	spawn worker(50);
	P(done);
	P(done);
	print(counter);
}`
	for _, seed := range []int64{0, 1, 7, 42} {
		_, out := run(t, src, Options{Seed: seed, Quantum: 3})
		if out != "100\n" {
			t.Errorf("seed %d: output = %q, want 100", seed, out)
		}
	}
}

func TestChannelsUnbuffered(t *testing.T) {
	src := `
chan c;
func producer(n int) {
	var i = 0;
	while (i < n) { send(c, i * i); i = i + 1; }
}
func main() {
	spawn producer(5);
	var s = 0;
	var i = 0;
	while (i < 5) { s = s + recv(c); i = i + 1; }
	print(s);
}`
	for _, seed := range []int64{0, 3, 9} {
		_, out := run(t, src, Options{Seed: seed, Quantum: 2})
		if out != "30\n" { // 0+1+4+9+16
			t.Errorf("seed %d: output = %q", seed, out)
		}
	}
}

func TestChannelsBuffered(t *testing.T) {
	_, out := run(t, `
chan c[3];
func main() {
	send(c, 1);
	send(c, 2);
	send(c, 3);
	print(recv(c), " ", recv(c), " ", recv(c));
}`, Options{})
	if out != "1 2 3\n" {
		t.Errorf("output = %q (FIFO order expected)", out)
	}
}

func TestBufferedChannelBlocksWhenFull(t *testing.T) {
	// Capacity 1: producer must alternate with consumer.
	_, out := run(t, `
chan c[1];
sem done = 0;
func producer() {
	send(c, 1);
	send(c, 2);
	send(c, 3);
	V(done);
}
func main() {
	spawn producer();
	print(recv(c), recv(c), recv(c));
	P(done);
}`, Options{Quantum: 1})
	if out != "123\n" {
		t.Errorf("output = %q", out)
	}
}

func TestDeadlockDetected(t *testing.T) {
	art, err := compile.Compile(source.NewFile("d.mpl", `
sem a = 0;
func main() { P(a); }`), compile.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	v := New(art.Prog, Options{})
	rerr := v.Run()
	if rerr == nil || !strings.Contains(rerr.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", rerr)
	}
	if !v.Deadlock {
		t.Error("Deadlock flag not set")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	src := `
shared x;
sem done = 0;
func w(k int) { x = x + k; V(done); }
func main() {
	spawn w(1);
	spawn w(2);
	P(done);
	P(done);
	print(x);
}`
	art, err := compile.Compile(source.NewFile("det.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 5} {
		var out1, out2 bytes.Buffer
		v1 := New(art.Prog, Options{Seed: seed, Quantum: 1, Output: &out1})
		v2 := New(art.Prog, Options{Seed: seed, Quantum: 1, Output: &out2})
		if err := v1.Run(); err != nil {
			t.Fatal(err)
		}
		if err := v2.Run(); err != nil {
			t.Fatal(err)
		}
		if out1.String() != out2.String() || v1.Steps != v2.Steps {
			t.Errorf("seed %d: nondeterministic execution", seed)
		}
	}
}

func TestLogModeProducesRecords(t *testing.T) {
	v, _ := run(t, `
var g = 1;
func f(a int) int { g = g + a; return g; }
func main() { print(f(2)); }`, Options{Mode: ModeLog})
	if v.Log == nil || v.Log.NumProcs() != 1 {
		t.Fatal("no log produced")
	}
	book := v.Log.Books[0]
	var kinds []string
	for _, r := range book.Records {
		kinds = append(kinds, r.Kind.String())
	}
	joined := strings.Join(kinds, " ")
	// start, main prelog, f prelog, f postlog, main postlog, exit
	want := "start prelog prelog postlog postlog exit"
	if joined != want {
		t.Errorf("record kinds = %q, want %q", joined, want)
	}
	// f's postlog must carry g's new value and the return value.
	post := book.Records[3]
	if post.Ret == nil || post.Ret.Int != 3 {
		t.Errorf("f postlog ret = %v, want 3", post.Ret)
	}
	gVal, ok := post.Globals.Get(0)
	if !ok || gVal.Int != 3 {
		t.Errorf("f postlog globals = %v", post.Globals)
	}
}

func TestPrelogCapturesParamsAndUsedGlobals(t *testing.T) {
	v, _ := run(t, `
var g = 5;
func f(a int, b int) int { return a + b + g; }
func main() { print(f(1, 2)); }`, Options{Mode: ModeLog})
	book := v.Log.Books[0]
	var fPre *logging.Record
	for _, r := range book.Records[2:] { // skip start + main prelog
		if r.Kind == logging.RecPrelog {
			fPre = r
			break
		}
	}
	if fPre == nil {
		t.Fatal("no f prelog")
	}
	if fPre.Locals.Len() != 2 {
		t.Errorf("prelog locals = %v, want 2 params", fPre.Locals)
	}
	p0, _ := fPre.Locals.Get(0)
	p1, _ := fPre.Locals.Get(1)
	if p0.Int != 1 || p1.Int != 2 {
		t.Errorf("prelog param values = %v", fPre.Locals)
	}
	g0, _ := fPre.Globals.Get(0)
	if g0.Int != 5 {
		t.Errorf("prelog globals = %v", fPre.Globals)
	}
}

func TestSyncRecordsAndEdgeSets(t *testing.T) {
	v, _ := run(t, `
shared sv;
sem s = 1;
sem done = 0;
func w() {
	P(s);
	sv = sv + 1;
	V(s);
	V(done);
}
func main() {
	spawn w();
	P(done);
	print(sv);
}`, Options{Mode: ModeLog, Quantum: 1})
	// Worker's V(s) record must carry sv in both read and write sets of the
	// internal edge between P(s) and V(s).
	book := v.Log.Books[1]
	var found bool
	for _, r := range book.Records {
		if r.Kind == logging.RecSync && r.Op == logging.OpV {
			if len(r.Writes) == 1 && r.Writes[0] == 0 && len(r.Reads) == 1 {
				found = true
			}
			break
		}
	}
	if !found {
		t.Errorf("V record missing edge sets; book:\n%s", bookString(book))
	}
}

func bookString(b *logging.Book) string {
	var sb strings.Builder
	for _, r := range b.Records {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestSemaphoreUnblockEdge(t *testing.T) {
	// done starts 0; main blocks on P(done); worker's V unblocks it:
	// main's P record must carry FromGsn = worker's V gsn.
	v, _ := run(t, `
sem done = 0;
func w() { V(done); }
func main() {
	spawn w();
	P(done);
}`, Options{Mode: ModeLog, Quantum: 1})
	var vGsn uint64
	for _, r := range v.Log.Books[1].Records {
		if r.Kind == logging.RecSync && r.Op == logging.OpV {
			vGsn = r.Gsn
		}
	}
	var pFrom uint64
	for _, r := range v.Log.Books[0].Records {
		if r.Kind == logging.RecSync && r.Op == logging.OpP {
			pFrom = r.FromGsn
		}
	}
	if vGsn == 0 || pFrom != vGsn {
		t.Errorf("P.FromGsn = %d, want V gsn %d", pFrom, vGsn)
	}
}

func TestSendRecvEdges(t *testing.T) {
	v, _ := run(t, `
chan c;
func w() { send(c, 42); }
func main() {
	spawn w();
	print(recv(c));
}`, Options{Mode: ModeLog, Quantum: 1})
	var sendGsn, recvGsn, recvFrom, unblockFrom uint64
	for _, b := range v.Log.Books {
		for _, r := range b.Records {
			if r.Kind != logging.RecSync {
				continue
			}
			switch r.Op {
			case logging.OpSend:
				sendGsn = r.Gsn
			case logging.OpRecv:
				recvGsn, recvFrom = r.Gsn, r.FromGsn
			case logging.OpUnblock:
				unblockFrom = r.FromGsn
			}
		}
	}
	if recvFrom != sendGsn {
		t.Errorf("recv.FromGsn = %d, want send gsn %d", recvFrom, sendGsn)
	}
	if unblockFrom != recvGsn {
		t.Errorf("unblock.FromGsn = %d, want recv gsn %d", unblockFrom, recvGsn)
	}
}

func TestSpawnEdge(t *testing.T) {
	v, _ := run(t, `
func w() { print(1); }
func main() { spawn w(); }`, Options{Mode: ModeLog})
	var spawnGsn uint64
	for _, r := range v.Log.Books[0].Records {
		if r.Kind == logging.RecSync && r.Op == logging.OpSpawn {
			spawnGsn = r.Gsn
		}
	}
	start := v.Log.Books[1].Records[0]
	if start.Kind != logging.RecStart || start.FromGsn != spawnGsn {
		t.Errorf("child start = %v, want FromGsn %d", start, spawnGsn)
	}
}

func TestFullTraceEvents(t *testing.T) {
	v, _ := run(t, `
func main() {
	var a = 2;
	var b = a * 3;
	if (b > 5) { print(b); }
}`, Options{Mode: ModeFullTrace})
	if v.Trace == nil || len(v.Trace.Buffers) != 1 {
		t.Fatal("no trace")
	}
	s := v.Trace.Buffers[0].String()
	for _, want := range []string{"write s1", "read s2", "write s2", "pred s3 =1"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %q:\n%s", want, s)
		}
	}
}

func TestTraceSmallerInLogMode(t *testing.T) {
	src := `
func main() {
	var s = 0;
	for (var i = 0; i < 200; i = i + 1) { s = s + i; }
	print(s);
}`
	art, err := compile.Compile(source.NewFile("sz.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	vLog := New(art.Prog, Options{Mode: ModeLog})
	if err := vLog.Run(); err != nil {
		t.Fatal(err)
	}
	vTr := New(art.Prog, Options{Mode: ModeFullTrace})
	if err := vTr.Run(); err != nil {
		t.Fatal(err)
	}
	logSize, trSize := vLog.Log.SizeBytes(), vTr.Trace.SizeBytes()
	if logSize*10 > trSize {
		t.Errorf("log (%d bytes) should be far smaller than full trace (%d bytes)", logSize, trSize)
	}
}

func TestShPrelogEmitted(t *testing.T) {
	// Shared prelogs appear only where another process may have written the
	// variable (§5.5 refined by cross-write analysis): the worker writes
	// sv, so main's unit after P(done) must log sv's value.
	v, _ := run(t, `
shared sv;
sem done = 0;
func w() { sv = sv + 1; V(done); }
func main() {
	spawn w();
	P(done);
	print(sv);
}`, Options{Mode: ModeLog, Quantum: 1})
	found := false
	for _, r := range v.Log.Books[0].Records {
		if r.Kind == logging.RecShPrelog {
			if _, ok := r.Globals.Get(0); ok {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no shared prelog with sv; log:\n%s", bookString(v.Log.Books[0]))
	}
}

func TestNoShPrelogInSingleProcess(t *testing.T) {
	// A program that never spawns needs no shared prelogs at all: its own
	// re-execution reproduces every value.
	v, _ := run(t, `
shared sv;
sem s = 1;
func main() {
	P(s);
	sv = sv + 1;
	V(s);
	print(sv);
}`, Options{Mode: ModeLog})
	for _, r := range v.Log.Books[0].Records {
		if r.Kind == logging.RecShPrelog {
			t.Errorf("spurious shared prelog in single-process program: %s", r)
		}
	}
}

func TestCallStackOverflow(t *testing.T) {
	_, err := runErr(t, `
func loop(n int) int { return loop(n + 1); }
func main() { print(loop(0)); }`, Options{})
	if !strings.Contains(err.Error(), "stack overflow") {
		t.Errorf("err = %v", err)
	}
}

func TestBareProgramMatchesInstrumented(t *testing.T) {
	src := `
var g = 3;
func f(n int) int {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + i * g; }
	return s;
}
func main() { print(f(10)); }`
	art, err := compile.Compile(source.NewFile("a.mpl", src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := compile.CompileBare(source.NewFile("a.mpl", src))
	if err != nil {
		t.Fatal(err)
	}
	var o1, o2 bytes.Buffer
	if err := New(art.Prog, Options{Mode: ModeLog, Output: &o1}).Run(); err != nil {
		t.Fatal(err)
	}
	if err := New(bare.Prog, Options{Output: &o2}).Run(); err != nil {
		t.Fatal(err)
	}
	if o1.String() != o2.String() {
		t.Errorf("instrumented output %q != bare output %q", o1.String(), o2.String())
	}
	if bare.Prog.NumInstrs() >= art.Prog.NumInstrs() {
		t.Error("bare program should have fewer instructions")
	}
}

func TestManyProcesses(t *testing.T) {
	_, out := run(t, `
shared total;
sem m = 1;
sem done = 0;
func w(k int) {
	P(m);
	total = total + k;
	V(m);
	V(done);
}
func main() {
	var i = 1;
	while (i <= 8) { spawn w(i); i = i + 1; }
	var j = 0;
	while (j < 8) { P(done); j = j + 1; }
	print(total);
}`, Options{Seed: 11, Quantum: 2})
	if out != "36\n" {
		t.Errorf("output = %q, want 36", out)
	}
}

func TestBreakpointHaltsAllProcesses(t *testing.T) {
	src := `
shared progress;
sem done = 0;
func w() {
	var i = 0;
	while (i < 100) {
		progress = progress + 1;
		i = i + 1;
	}
	V(done);
}
func main() {
	spawn w();
	P(done);
	print(progress);
}`
	art, err := compile.Compile(source.NewFile("bp.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Break at V(done) in the worker: execution must halt before main's
	// print, with all logs flushed.
	var target ast.StmtID
	for id := ast.StmtID(1); id <= ast.StmtID(art.Info.Prog.NumStmts); id++ {
		if st := art.Info.Prog.StmtByID(id); st != nil && ast.StmtString(st) == "V(done)" {
			target = id
		}
	}
	if target == ast.NoStmt {
		t.Fatal("no V(done) statement")
	}
	var out bytes.Buffer
	v := New(art.Prog, Options{Mode: ModeLog, Quantum: 5, Output: &out, BreakAt: target})
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !v.BreakHit {
		t.Fatal("breakpoint not hit")
	}
	if out.Len() != 0 {
		t.Errorf("main printed despite the halt: %q", out.String())
	}
	last := v.Log.Books[1].Records[v.Log.Books[1].Len()-1]
	if last.Kind != logging.RecExit || last.Value != logging.ExitBreak {
		t.Errorf("worker exit record = %v", last)
	}
	if v.Globals[0].Int != 100 {
		t.Errorf("progress = %d, want 100", v.Globals[0].Int)
	}
	if v.Procs[1].CurrentStmt() != target {
		t.Errorf("worker stopped at s%d, want s%d", v.Procs[1].CurrentStmt(), target)
	}
}

func TestBreakpointNeverHitRunsToCompletion(t *testing.T) {
	art, err := compile.Compile(source.NewFile("nb.mpl", `
func main() { print(1); }`), compile.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	v := New(art.Prog, Options{Output: &out, BreakAt: ast.StmtID(999)})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.BreakHit || out.String() != "1\n" {
		t.Errorf("hit=%t out=%q", v.BreakHit, out.String())
	}
}

func TestModeAndStatusStrings(t *testing.T) {
	if ModeRun.String() != "run" || ModeLog.String() != "log" ||
		ModeFullTrace.String() != "fulltrace" || Mode(42).String() != "?" {
		t.Error("mode strings wrong")
	}
	wants := map[Status]string{
		StatusReady: "ready", StatusBlockedSem: "blocked-P",
		StatusBlockedSend: "blocked-send", StatusBlockedRecv: "blocked-recv",
		StatusDone: "done", StatusFailed: "failed",
	}
	for s, w := range wants {
		if s.String() != w {
			t.Errorf("%d = %q, want %q", s, s.String(), w)
		}
	}
	if Status(99).String() != "?" {
		t.Error("unknown status")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	v, _ := run(t, `
shared arr[2];
var g = 7;
func main() { arr[0] = 5; }`, Options{})
	snap := v.Snapshot()
	snap[0].Arr[0] = 99
	if v.Globals[0].Arr[0] == 99 {
		t.Error("snapshot shares array storage")
	}
	if snap[1].Int != 7 {
		t.Errorf("scalar = %d", snap[1].Int)
	}
}

func TestRandomSeedSchedulerStillCorrect(t *testing.T) {
	// Heavily preempted random scheduling must preserve the protected
	// counter's invariant for every seed.
	src := `
shared n;
sem m = 1;
sem done = 0;
func w() {
	var i = 0;
	while (i < 20) { P(m); n = n + 1; V(m); i = i + 1; }
	V(done);
}
func main() {
	spawn w(); spawn w(); spawn w();
	P(done); P(done); P(done);
	print(n);
}`
	for seed := int64(1); seed <= 10; seed++ {
		_, out := run(t, src, Options{Seed: seed, Quantum: 1})
		if out != "60\n" {
			t.Errorf("seed %d: %q", seed, out)
		}
	}
}

func TestMaxStepsBudget(t *testing.T) {
	art, err := compile.Compile(source.NewFile("inf.mpl", `
func main() {
	var x = 0;
	while (x == 0) { x = x * 1; }
}`), compile.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	v := New(art.Prog, Options{MaxSteps: 10000})
	if err := v.Run(); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want budget exhaustion", err)
	}
}

func TestFullTraceParallelSyncEvents(t *testing.T) {
	v, _ := run(t, `
sem s = 0;
chan c[1];
func w() { send(c, 3); V(s); }
func main() {
	spawn w();
	P(s);
	print(recv(c));
}`, Options{Mode: ModeFullTrace, Quantum: 1})
	all := ""
	for _, b := range v.Trace.Buffers {
		all += b.String()
	}
	for _, want := range []string{"sync", "send", "recv", "spawn"} {
		if !strings.Contains(all, want) {
			t.Errorf("full trace missing %q:\n%s", want, all)
		}
	}
}

func TestObsFoldsExecutionCounters(t *testing.T) {
	sink := obs.New()
	v, _ := run(t, `
sem done = 0;
func w(n int) { print(n); V(done); }
func main() { spawn w(1); spawn w(2); P(done); P(done); }`,
		Options{Mode: ModeLog, Quantum: 1, Obs: sink})
	snap := sink.Snapshot()
	if got := snap.Counter("exec.steps"); got != v.Steps {
		t.Errorf("exec.steps = %d, VM counted %d", got, v.Steps)
	}
	if got := snap.Counter("exec.procs"); got != 3 {
		t.Errorf("exec.procs = %d, want 3", got)
	}
	if got := snap.Counter("exec.ctxswitches"); got != v.CtxSwitches || got == 0 {
		t.Errorf("exec.ctxswitches = %d (VM field %d), want equal and > 0", got, v.CtxSwitches)
	}
	if got := snap.Counter("exec.syncs"); got == 0 {
		t.Error("exec.syncs = 0, want > 0 (the program synchronizes)")
	}
	if snap.Timer("exec.run").Count != 1 {
		t.Error("exec.run scope not observed exactly once")
	}
}

func TestObsNilSinkIdenticalExecution(t *testing.T) {
	src := `
func main() {
	var i = 0;
	while (i < 10) { i = i + 1; }
	print(i);
}`
	vOff, outOff := run(t, src, Options{Mode: ModeLog})
	vOn, outOn := run(t, src, Options{Mode: ModeLog, Obs: obs.New()})
	if outOff != outOn {
		t.Errorf("output differs: %q vs %q", outOff, outOn)
	}
	if vOff.Steps != vOn.Steps {
		t.Errorf("steps differ: %d vs %d", vOff.Steps, vOn.Steps)
	}
	if vOff.Log.SizeBytes() != vOn.Log.SizeBytes() {
		t.Errorf("log size differs: %d vs %d", vOff.Log.SizeBytes(), vOn.Log.SizeBytes())
	}
}

func TestCtxSwitchesSingleProcessIsZero(t *testing.T) {
	v, _ := run(t, `func main() { print(1); }`, Options{Mode: ModeRun})
	if v.CtxSwitches != 0 {
		t.Errorf("CtxSwitches = %d for a single process, want 0", v.CtxSwitches)
	}
}

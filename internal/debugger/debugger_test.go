package debugger

import (
	"bytes"
	"strings"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/controller"
	"ppd/internal/source"
	"ppd/internal/vm"
)

func startSession(t *testing.T, src string, opts vm.Options) *Session {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts.Mode = vm.ModeLog
	v := vm.New(art.Prog, opts)
	_ = v.Run()
	s, err := New(controller.New(art, v.Log, controller.Config{Failure: v.Failure, Deadlock: v.Deadlock}))
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	return s
}

const crashSrc = `
var g = 1;
func f(a int) int {
	g = g + a;
	return g * 2;
}
func main() {
	var r = f(20) / (g - 21);
	print(r);
}`

func exec(s *Session, cmd string) string {
	var out bytes.Buffer
	s.Exec(&out, cmd)
	return out.String()
}

func TestSessionBasicCommands(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})

	if got := exec(s, "summary"); !strings.Contains(got, "division by zero") {
		t.Errorf("summary = %s", got)
	}
	if got := exec(s, "procs"); !strings.Contains(got, "P0") || !strings.Contains(got, "[failed]") {
		t.Errorf("procs = %s", got)
	}
	if got := exec(s, "graph 4"); !strings.Contains(got, "data") {
		t.Errorf("graph = %s", got)
	}
	if got := exec(s, "help"); !strings.Contains(got, "flowback") {
		t.Errorf("help = %s", got)
	}
	if got := exec(s, "races"); !strings.Contains(got, "race-free") {
		t.Errorf("races = %s", got)
	}
	if got := exec(s, "bogus"); !strings.Contains(got, "unknown command") {
		t.Errorf("bogus = %s", got)
	}
}

func TestSessionIntervalNavigation(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	got := exec(s, "intervals")
	if !strings.Contains(got, "func e-block of main") || !strings.Contains(got, "func e-block of f") {
		t.Errorf("intervals = %s", got)
	}
	// Find f's record index from the listing and emulate it.
	var fIdx string
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "of f") {
			fields := strings.Fields(line)
			for i, fld := range fields {
				if fld == "record" {
					fIdx = strings.TrimSuffix(fields[i+1], ":")
				}
			}
		}
	}
	if fIdx == "" {
		t.Fatalf("no f interval in %s", got)
	}
	got = exec(s, "emulate "+fIdx)
	if !strings.Contains(got, "emulated interval") {
		t.Errorf("emulate = %s", got)
	}
	got = exec(s, "graph 3")
	if !strings.Contains(got, "[g]") {
		t.Errorf("f's graph should show g's assignment: %s", got)
	}
}

func TestSessionStmtAndDefs(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	got := exec(s, "stmt 1")
	if !strings.Contains(got, "g=g+a") {
		t.Errorf("stmt = %s", got)
	}
	got = exec(s, "defs g")
	if !strings.Contains(got, "g=g+a") {
		t.Errorf("defs = %s", got)
	}
	if got := exec(s, "defs nosuch"); !strings.Contains(got, "no definitions") {
		t.Errorf("defs nosuch = %s", got)
	}
}

func TestSessionWhatIf(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	// Focus interval is main's (open). Overriding g to 100 avoids the zero
	// divisor: 121-21=100... wait g starts 1, f makes it 21, divisor 0.
	// Override the *prelog* g to 5: f makes it 25, divisor 4 -> no failure.
	got := exec(s, "whatif g=5")
	if !strings.Contains(got, "DISAPPEARS") {
		t.Errorf("whatif = %s", got)
	}
	if got := exec(s, "whatif nosuch=1"); !strings.Contains(got, "no global") {
		t.Errorf("whatif nosuch = %s", got)
	}
}

func TestSessionResolveCrossProcess(t *testing.T) {
	s := startSession(t, `
shared sv;
sem done = 0;
func w() { sv = 9; V(done); }
func main() {
	spawn w();
	P(done);
	print(sv / (sv - 9));
}`, vm.Options{Quantum: 1})
	got := exec(s, "resolve sv")
	if !strings.Contains(got, "written by process 1") {
		t.Errorf("resolve = %s", got)
	}
	// Follow the hint: focus 1.
	got = exec(s, "focus 1")
	if !strings.Contains(got, "focused on process 1") {
		t.Errorf("focus = %s", got)
	}
	if got = exec(s, "intervals"); !strings.Contains(got, "of w") {
		t.Errorf("intervals = %s", got)
	}
	// The writer's log shows its postlog carrying sv's new value.
	if got = exec(s, "log"); !strings.Contains(got, "postlog") || !strings.Contains(got, "globals={0:9}") {
		t.Errorf("writer log = %s", got)
	}
	// defs finds the writing statement.
	if got = exec(s, "defs sv"); !strings.Contains(got, "sv=9") {
		t.Errorf("defs sv = %s", got)
	}
}

func TestSessionLogDump(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	got := exec(s, "log")
	for _, want := range []string{"start", "prelog", "postlog"} {
		if !strings.Contains(got, want) {
			t.Errorf("log missing %q:\n%s", want, got)
		}
	}
}

func TestSessionNodeDetails(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	graph := exec(s, "graph 1")
	// Extract the root node id "nNN".
	idx := strings.Index(graph, "n")
	if idx < 0 {
		t.Fatalf("graph = %s", graph)
	}
	end := idx + 1
	for end < len(graph) && graph[end] >= '0' && graph[end] <= '9' {
		end++
	}
	got := exec(s, "node "+graph[idx+1:end])
	if !strings.Contains(got, "kind=") {
		t.Errorf("node = %s", got)
	}
	if got := exec(s, "node 99999"); !strings.Contains(got, "no node") {
		t.Errorf("bad node = %s", got)
	}
}

func TestSessionRunLoop(t *testing.T) {
	art, err := compile.Compile(source.NewFile("t.mpl", `func main() { var a = 1 / 0; }`), compile.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog})
	_ = v.Run()
	s, err := New(controller.New(art, v.Log, controller.Config{Failure: v.Failure, Deadlock: v.Deadlock}))
	if err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("summary\ngraph\nquit\n")
	var out bytes.Buffer
	if err := s.Run(in, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "division by zero") {
		t.Errorf("run output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "(ppd)") {
		t.Error("missing prompt")
	}
}

func TestSessionDeadlockCommand(t *testing.T) {
	s := startSession(t, `
sem a = 1;
sem b = 1;
sem started = 0;
func w() { P(b); V(started); P(a); }
func main() {
	P(a);
	spawn w();
	P(started);
	P(b);
}`, vm.Options{Quantum: 1})
	got := exec(s, "deadlock")
	if !strings.Contains(got, "blocked in P(b)") || !strings.Contains(got, "blocked in P(a)") {
		t.Errorf("deadlock report = %s", got)
	}
	if !strings.Contains(got, "last acquired by") {
		t.Errorf("deadlock report missing holders: %s", got)
	}
}

func TestSessionWhere(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	got := exec(s, "where")
	if !strings.Contains(got, "P0: failed") {
		t.Errorf("where = %s", got)
	}
	s2 := startSession(t, `
sem never = 0;
func main() { P(never); }`, vm.Options{})
	if got := exec(s2, "where"); !strings.Contains(got, "blocked on P(never)") {
		t.Errorf("where = %s", got)
	}
}

func TestSessionFlowbackCommand(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	graph := exec(s, "graph 1")
	idx := strings.Index(graph, "n")
	end := idx + 1
	for end < len(graph) && graph[end] >= '0' && graph[end] <= '9' {
		end++
	}
	got := exec(s, "flowback "+graph[idx+1:end]+" 2")
	if !strings.Contains(got, "data") {
		t.Errorf("flowback = %s", got)
	}
	if got := exec(s, "flowback"); !strings.Contains(got, "usage") {
		t.Errorf("flowback usage = %s", got)
	}
	if got := exec(s, "flowback 9999"); !strings.Contains(got, "no node") {
		t.Errorf("flowback bad = %s", got)
	}
}

func TestSessionDotCommand(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	got := exec(s, "dot")
	if !strings.Contains(got, "digraph ppd") {
		t.Errorf("dot = %s", got)
	}
}

func TestSessionBadFocusAndEmulate(t *testing.T) {
	s := startSession(t, crashSrc, vm.Options{})
	if got := exec(s, "focus 9"); !strings.Contains(got, "no process") {
		t.Errorf("focus 9 = %s", got)
	}
	if got := exec(s, "focus"); !strings.Contains(got, "usage") {
		t.Errorf("focus = %s", got)
	}
	if got := exec(s, "emulate notanumber"); !strings.Contains(got, "bad index") {
		t.Errorf("emulate = %s", got)
	}
	if got := exec(s, "emulate 0"); !strings.Contains(got, "emulate:") {
		t.Errorf("emulate 0 (start record) = %s", got)
	}
	if got := exec(s, "stmt 9999"); !strings.Contains(got, "no statement") {
		t.Errorf("stmt = %s", got)
	}
	if got := exec(s, "stmt"); !strings.Contains(got, "usage") {
		t.Errorf("stmt usage = %s", got)
	}
}

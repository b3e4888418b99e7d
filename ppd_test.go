package ppd

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"ppd/internal/controller"
	"ppd/internal/eblock"
	"ppd/internal/logging"
)

const facadeCrash = `
var g = 1;
func f(a int) int {
	g = g + a;
	return g * 2;
}
func main() {
	var r = f(20) / (g - 21);
	print(r);
}
`

func TestFacadeCompileRun(t *testing.T) {
	prog, err := CompileOpts("ok.mpl", `func main() { print(6 * 7); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := prog.Run(Options{Output: &out}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "42\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestFacadeCompileError(t *testing.T) {
	if _, err := CompileOpts("bad.mpl", `func main() { x = ; }`, eblock.DefaultConfig(), Options{}); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestFacadeDebugFlow(t *testing.T) {
	prog, err := CompileOpts("crash.mpl", facadeCrash, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exec.Failed() == nil {
		t.Fatal("expected a failure")
	}
	if !strings.Contains(exec.Failed().Error(), "division by zero") {
		t.Errorf("failure = %v", exec.Failed())
	}
	sess, err := exec.Debugger()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sess.Exec(&out, "graph 3")
	if !strings.Contains(out.String(), "data") {
		t.Errorf("graph = %s", out.String())
	}
}

func TestFacadeRaces(t *testing.T) {
	prog, err := CompileOpts("racy.mpl", `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{Quantum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Races()) == 0 {
		t.Error("expected races")
	}
	if !strings.Contains(exec.RaceReport(), "counter") {
		t.Errorf("report = %s", exec.RaceReport())
	}
}

func TestFacadeWhatIf(t *testing.T) {
	prog, err := CompileOpts("crash.mpl", facadeCrash, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := exec.Controller().FocusInterval(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.WhatIf(0, idx, "g", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Original.Err == nil {
		t.Error("original replay should reproduce the failure")
	}
	if res.Modified.Err != nil {
		t.Errorf("modified replay should succeed, got %v", res.Modified.Err)
	}
	if _, err := exec.WhatIf(0, idx, "nosuch", 1); err == nil {
		t.Error("expected error for unknown global")
	}
}

func TestFacadeLogRoundTrip(t *testing.T) {
	prog, err := CompileOpts("rt.mpl", `
var g;
func f() { g = g + 1; }
func main() { f(); f(); print(g); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exec.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := prog.ReadLog(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The loaded execution must be fully debuggable: emulate main and find
	// both f sub-graph instances.
	g, _, err := loaded.Controller().CurrentGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	subs := 0
	for _, n := range g.Nodes {
		if n.Label == "f" {
			subs++
		}
	}
	if subs != 2 {
		t.Errorf("sub-graph nodes after round trip = %d, want 2", subs)
	}
}

func TestFacadeBreakpoint(t *testing.T) {
	prog, err := CompileOpts("bp.mpl", `
var g;
func main() {
	g = 1;
	g = 2;
	print(g);
}`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Statement 2 is "g = 2".
	exec, err := prog.RunLoggedContext(context.Background(), Options{BreakAt: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !exec.AtBreakpoint() {
		t.Fatal("breakpoint not hit")
	}
	if exec.Failed() != nil || exec.Deadlocked() {
		t.Error("breakpoint halt misclassified")
	}
	// g holds the value from before the halted statement.
	c := exec.Controller()
	if c == nil {
		t.Fatal("no controller")
	}
}

// TestOptionsValidation pins the validation contract over every invalid
// branch: the error wraps ErrInvalidOptions (errors.Is), and the message
// names both the offending field and the offending value.
func TestOptionsValidation(t *testing.T) {
	prog, err := CompileOpts("v.mpl", `func main() { print(1); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		opts  Options
		field string
		value string
	}{
		{"negative quantum", Options{Quantum: -1}, "Quantum", "-1"},
		{"negative max steps", Options{MaxSteps: -5}, "MaxSteps", "-5"},
		{"negative breakpoint", Options{BreakAt: -3}, "BreakAt", "-3"},
		{"unknown statement breakpoint", Options{BreakAt: 9999}, "BreakAt", "9999"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(api string, err error) {
				if err == nil {
					t.Fatalf("%s(%+v): no error", api, tc.opts)
				}
				if !errors.Is(err, ErrInvalidOptions) {
					t.Errorf("%s error %v does not wrap ErrInvalidOptions", api, err)
				}
				msg := err.Error()
				if !strings.Contains(msg, "Options."+tc.field) {
					t.Errorf("%s error %q does not name field %s", api, msg, tc.field)
				}
				if !strings.Contains(msg, tc.value) {
					t.Errorf("%s error %q does not include value %s", api, msg, tc.value)
				}
			}
			_, rlErr := prog.RunLoggedContext(context.Background(), tc.opts)
			check("RunLoggedContext", rlErr)
			check("Run", prog.Run(tc.opts))
			_, poErr := prog.ProfileOps(tc.opts)
			check("ProfileOps", poErr)
			_, osErr := OpenSession("v.mpl", `func main() { print(1); }`, tc.opts)
			check("OpenSession", osErr)
		})
	}
	// Zero values still select defaults.
	if _, err := prog.RunLoggedContext(context.Background(), Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
	// The unknown-statement message must point at `ppd dump`.
	_, err = prog.RunLoggedContext(context.Background(), Options{BreakAt: 9999})
	if err == nil || !strings.Contains(err.Error(), "no such statement") {
		t.Errorf("BreakAt=9999 error = %v, want 'no such statement'", err)
	}
}

// TestFacadeRacesMemoized asserts the satellite contract: repeated Races()
// calls perform zero re-detection. The observable is race.runs — the
// detector increments it once per actual scan.
func TestFacadeRacesMemoized(t *testing.T) {
	prog, err := CompileOpts("racy.mpl", `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{Quantum: 1})
	if err != nil {
		t.Fatal(err)
	}
	r1 := exec.Races()
	r2 := exec.Races()
	r3 := exec.Races()
	if len(r1) == 0 {
		t.Fatal("expected races")
	}
	if &r1[0] != &r2[0] || &r2[0] != &r3[0] {
		t.Error("repeated Races() returned different slices (re-detected)")
	}
	if got := exec.Stats().Counter("race.runs"); got != 1 {
		t.Errorf("race.runs = %d after 3 Races() calls, want 1", got)
	}
}

func TestFacadeStatsCoversAllThreePhases(t *testing.T) {
	prog, err := CompileOpts("stats.mpl", `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); print(counter); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{Quantum: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	_ = exec.Races()
	if _, _, err := exec.Controller().CurrentGraph(0); err != nil {
		t.Fatal(err)
	}
	st := exec.Stats()
	for _, name := range []string{
		// preparatory phase
		"compile.funcs", "compile.instrs", "compile.eblocks",
		// execution phase
		"exec.steps", "exec.procs", "exec.syncs",
		"exec.log.records", "exec.log.bytes",
		// debugging phase
		"debug.cache.misses", "race.pairs", "race.runs",
	} {
		if st.Counter(name) == 0 {
			t.Errorf("counter %s = 0, want non-zero", name)
		}
	}
	for _, name := range []string{"compile.total", "exec.run", "debug.build", "debug.emulate"} {
		if st.Timer(name).Count == 0 {
			t.Errorf("timer %s unobserved", name)
		}
	}
	// Stats is idempotent: a second snapshot reports the same log gauges.
	if a, b := st.Counter("exec.log.bytes"), exec.Stats().Counter("exec.log.bytes"); a != b {
		t.Errorf("exec.log.bytes drifted across Stats() calls: %d vs %d", a, b)
	}
	// CompileStats alone carries only the preparatory phase.
	cs := prog.CompileStats()
	if cs.Counter("compile.funcs") == 0 {
		t.Error("CompileStats missing compile.funcs")
	}
	if cs.Counter("exec.steps") != 0 {
		t.Error("CompileStats must not contain execution counters")
	}
	// Both renderings work.
	if !strings.Contains(st.Text(), "exec.steps") {
		t.Error("Text() missing exec.steps")
	}
	if b, err := st.JSON(); err != nil || !bytes.Contains(b, []byte("counters")) {
		t.Errorf("JSON() = %s, %v", b, err)
	}
}

func TestFacadeCacheBoundPlumbed(t *testing.T) {
	// f exceeds the leaf-inline threshold so each call is its own interval.
	prog, err := CompileOpts("wcb.mpl", `
var g;
func f() {
	g = g + 1;
	g = g + 1;
	g = g + 1;
	g = g + 1;
	g = g + 1;
	g = g + 1;
	g = g + 1;
	g = g + 1;
	g = g + 1;
}
func main() { f(); f(); f(); print(g); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{CacheBound: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := exec.Controller()
	if c.Emulator(0) == nil {
		t.Fatal("controller not built")
	}
	// Walk every interval twice under a bound of 1: the second pass cannot
	// hit (each interval evicts the previous), so evictions must show up.
	var idxs []int
	for i, r := range exec.Log().Books[0].Records {
		if r.Kind == logging.RecPrelog {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) < 2 {
		t.Fatalf("need >= 2 intervals, got %d", len(idxs))
	}
	for pass := 0; pass < 2; pass++ {
		for _, idx := range idxs {
			if _, err := c.Graph(0, idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := exec.Stats()
	if st.Counter("debug.cache.evictions") == 0 {
		t.Error("CacheBound: 1 produced no evictions — bound not plumbed")
	}
	if st.Counter("debug.cache.hits") != 0 {
		t.Error("bound-1 walk should never hit")
	}
}

func TestFacadeTraceStreamsScopes(t *testing.T) {
	prog, err := CompileOpts("tr.mpl", `func main() { print(3); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	exec, err := prog.RunLoggedContext(context.Background(), Options{Output: &bytes.Buffer{}, Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	_ = exec.Races()
	for _, want := range []string{"begin exec.run", "end   exec.run", "begin debug.build", "end   debug.race"} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("trace missing %q:\n%s", want, trace.String())
		}
	}
}

// TestFacadeLogRoundTripParity is the satellite round-trip contract: an
// execution reloaded from its persisted log answers debugging queries
// identically to the in-memory one.
func TestFacadeLogRoundTripParity(t *testing.T) {
	prog, err := CompileOpts("parity.mpl", `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); print(counter); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), Options{Quantum: 1, Output: &bytes.Buffer{}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := exec.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	persisted := append([]byte(nil), buf.Bytes()...)
	loaded, err := prog.ReadLog(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Race detection parity.
	if got, want := loaded.RaceReport(), exec.RaceReport(); got != want {
		t.Errorf("race report diverges after round trip:\n%s\nvs\n%s", got, want)
	}

	// Flowback parity: same focus graph, same rendered fragment.
	for pid := 0; pid < exec.Log().NumProcs(); pid++ {
		g1, idx1, err := exec.Controller().CurrentGraph(pid)
		if err != nil {
			t.Fatal(err)
		}
		g2, idx2, err := loaded.Controller().CurrentGraph(pid)
		if err != nil {
			t.Fatal(err)
		}
		if idx1 != idx2 {
			t.Errorf("pid %d: focus interval %d vs %d", pid, idx1, idx2)
		}
		f1 := controller.RenderFragment(g1, g1.LastNode().ID, 4)
		f2 := controller.RenderFragment(g2, g2.LastNode().ID, 4)
		if f1 != f2 {
			t.Errorf("pid %d: flowback fragment diverges after round trip:\n%s\nvs\n%s", pid, f1, f2)
		}
	}

	// The loaded execution's log is the loaded one, not an empty shell:
	// re-persisting it must reproduce the original bytes.
	var buf2 bytes.Buffer
	if err := loaded.WriteLog(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(persisted, buf2.Bytes()) {
		t.Error("re-persisted log differs from the original")
	}
}

func TestFacadeVet(t *testing.T) {
	prog, err := CompileOpts("racy.mpl", `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Vet()
	if res == nil || res.Clean() {
		t.Fatalf("expected diagnostics on the racy counter, got %+v", res)
	}
	if !strings.Contains(res.Text(), "[race-candidate]") {
		t.Errorf("vet text missing race candidate:\n%s", res.Text())
	}
	if prog.Vet() != res {
		t.Error("Vet must memoize via the program database")
	}
	if !res.Conflicts.Mask().Has(0) {
		t.Errorf("counter must be a conflict candidate: %s", res.Conflicts)
	}
}

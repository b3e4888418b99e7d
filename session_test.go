package ppd

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"ppd/internal/race"
	"ppd/internal/workloads"
)

func TestSessionLifecycle(t *testing.T) {
	sess, err := OpenSession("crash.mpl", facadeCrash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Failed() == nil {
		t.Fatal("crash program should fail")
	}
	if sess.Deadlocked() {
		t.Error("crash is a failure, not a deadlock")
	}
	if _, err := sess.Races(); err != nil {
		t.Errorf("Races: %v", err)
	}
	frag, err := sess.Flowback(0, 3)
	if err != nil {
		t.Fatalf("Flowback: %v", err)
	}
	if !strings.Contains(frag, "g") {
		t.Errorf("flowback fragment mentions no variable:\n%s", frag)
	}
	// What-if with the default (focus) interval: overriding g to 5 makes
	// the divisor 4, so the failure disappears.
	res, err := sess.WhatIf(0, -1, "g", 5)
	if err != nil {
		t.Fatalf("WhatIf: %v", err)
	}
	if res.Original.Err == nil || res.Modified.Err != nil {
		t.Errorf("what-if: original err %v, modified err %v; want failure → success",
			res.Original.Err, res.Modified.Err)
	}
	var log bytes.Buffer
	if err := sess.WriteLog(&log); err != nil {
		t.Fatalf("WriteLog: %v", err)
	}
	if log.Len() == 0 {
		t.Error("empty log")
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSessionClose pins the teardown contract: Close is idempotent, drops
// the emulation cache (observable as debug.cache.evictions), and turns
// every subsequent query into ErrSessionClosed — while Failed, Deadlocked,
// and Stats stay answerable.
func TestSessionClose(t *testing.T) {
	sess, err := OpenSession("crash.mpl", facadeCrash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Populate the emulation cache so Close has something to release.
	if _, err := sess.Flowback(0, 2); err != nil {
		t.Fatal(err)
	}
	before := sess.Stats().Counters["debug.cache.evictions"]
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	after := sess.Stats().Counters["debug.cache.evictions"]
	if after <= before {
		t.Errorf("debug.cache.evictions %d -> %d; Close released nothing", before, after)
	}
	if _, err := sess.Races(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Races after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.RaceReport(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("RaceReport after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Flowback(0, 2); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Flowback after Close = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.WhatIf(0, -1, "g", 5); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("WhatIf after Close = %v, want ErrSessionClosed", err)
	}
	if err := sess.WriteLog(&bytes.Buffer{}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("WriteLog after Close = %v, want ErrSessionClosed", err)
	}
	if err := sess.Rerun(context.Background(), Options{}); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Rerun after Close = %v, want ErrSessionClosed", err)
	}
	// Post-mortem reads still work.
	if sess.Failed() == nil {
		t.Error("Failed unanswerable after Close")
	}
	_ = sess.Deadlocked()
}

func TestSessionRerun(t *testing.T) {
	sess, err := OpenSession("crash.mpl", facadeCrash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	first := sess.Execution()
	if err := sess.Rerun(context.Background(), Options{Seed: 3}); err != nil {
		t.Fatalf("Rerun: %v", err)
	}
	if sess.Execution() == first {
		t.Error("Rerun did not replace the execution")
	}
	// The session answers queries against the new execution.
	if _, err := sess.Flowback(0, 2); err != nil {
		t.Errorf("Flowback after Rerun: %v", err)
	}
	// Invalid options leave the current execution in place.
	if err := sess.Rerun(context.Background(), Options{Quantum: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Rerun with bad options = %v, want ErrInvalidOptions", err)
	}
	if _, err := sess.Races(); err != nil {
		t.Errorf("session unusable after failed Rerun: %v", err)
	}
}

// TestSessionConcurrentQueries drives one session from many goroutines
// under the race detector: queries serialize on the session lock and a
// concurrent Close linearizes with them.
func TestSessionConcurrentQueries(t *testing.T) {
	sess, err := OpenSession("crash.mpl", facadeCrash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				switch i % 4 {
				case 0:
					_, _ = sess.Races()
				case 1:
					_, _ = sess.Flowback(0, 2)
				case 2:
					_, _ = sess.RaceReport()
				case 3:
					_ = sess.Stats()
				}
			}
		}(i)
	}
	wg.Wait()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// gateWriter blocks a logged run at its first print until released,
// giving tests a deterministic window in which a Rerun is in flight.
type gateWriter struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return len(p), nil
}

const printingSrc = `func main() { print(1); print(2); }`

// TestRerunDoesNotBlockQueries pins the Rerun lock discipline: the
// logged run happens outside the session lock, so queries keep answering
// from the current execution while the new one is produced (holding the
// lock across the run stalled Stats — and the daemon's /metrics — for
// the whole re-execution), and a second Rerun is refused with
// ErrSessionBusy instead of queueing.
func TestRerunDoesNotBlockQueries(t *testing.T) {
	sess, err := OpenSession("print.mpl", printingSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	first := sess.Execution()

	gate := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- sess.Rerun(context.Background(), Options{Output: gate})
	}()
	<-gate.entered // the re-run is now mid-execution

	if st := sess.Stats(); st == nil {
		t.Error("Stats during in-flight Rerun returned nil")
	}
	if _, err := sess.Races(); err != nil {
		t.Errorf("Races during in-flight Rerun: %v", err)
	}
	if got := sess.Execution(); got != first {
		t.Error("execution swapped before the re-run finished")
	}
	if err := sess.Rerun(context.Background(), Options{}); !errors.Is(err, ErrSessionBusy) {
		t.Errorf("concurrent Rerun = %v, want ErrSessionBusy", err)
	}

	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("Rerun: %v", err)
	}
	if sess.Execution() == first {
		t.Error("Rerun did not replace the execution")
	}
}

// TestCloseDuringRerun: a Close landing while a Rerun's logged run is in
// flight wins — the finished run is discarded (its debugging-phase
// memory released) and Rerun reports ErrSessionClosed.
func TestCloseDuringRerun(t *testing.T) {
	sess, err := OpenSession("print.mpl", printingSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- sess.Rerun(context.Background(), Options{Output: gate})
	}()
	<-gate.entered
	if err := sess.Close(); err != nil {
		t.Fatalf("Close during Rerun: %v", err)
	}
	close(gate.release)
	if err := <-done; !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Rerun overlapping Close = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Races(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("Races after Close = %v, want ErrSessionClosed", err)
	}
}

// TestCompileErrSentinel: preparatory-phase failures carry ErrCompile;
// infrastructure outcomes of the run phase do not, so callers (and the
// daemon's error mapping) can tell "fix the program" from "the run
// didn't happen".
func TestCompileErrSentinel(t *testing.T) {
	_, err := Compile("bad.mpl", "func main( {")
	if !errors.Is(err, ErrCompile) {
		t.Errorf("Compile syntax error = %v, want ErrCompile", err)
	}
	if _, err := OpenSession("bad.mpl", "func main( {", Options{}); !errors.Is(err, ErrCompile) {
		t.Errorf("OpenSession syntax error = %v, want ErrCompile", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OpenSessionContext(ctx, "print.mpl", printingSrc, Options{}); errors.Is(err, ErrCompile) {
		t.Errorf("cancelled open = %v; run-phase outcome must not carry ErrCompile", err)
	}
}

// TestOpenSessionCancellation: a context cancelled before the run starts
// aborts the logged execution at the first scheduling slice.
func TestOpenSessionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// An infinite loop would never finish without the per-slice check.
	src := `
var spin = 1;
func main() { while (spin > 0) { spin = spin + 1; spin = spin - 1; } }`
	if _, err := OpenSessionContext(ctx, "spin.mpl", src, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenSessionContext with cancelled ctx = %v, want context.Canceled", err)
	}
	prog, err := Compile("spin.mpl", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.RunContext(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext with cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := prog.RunLoggedContext(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunLoggedContext with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestSessionCompatibleWithDirectAPI: the race report through a Session is
// byte-identical to the Program/Execution path for the same inputs.
func TestSessionCompatibleWithDirectAPI(t *testing.T) {
	src := `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`
	opts := Options{Seed: 5, Quantum: 1}

	prog, err := Compile("racy.mpl", src)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLogged(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := exec.RaceReport()

	sess, err := OpenSession("racy.mpl", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got, err := sess.RaceReport()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("session race report diverged from direct API:\n--- direct\n%s\n--- session\n%s", want, got)
	}
}

// TestRacesReuseCompileFacts checks that an uncached session runs the
// abstract interpreter once, in the compile pipeline (compile.absint):
// the race detector's static pruning reads the vet result through
// Artifacts.Vet, which reuses the compile's facts, so Analyze never runs
// absint again (analysis.absint). The pruned report must equal the one
// over the unpruned reference detector.
func TestRacesReuseCompileFacts(t *testing.T) {
	t.Setenv("PPD_CACHE_DIR", "")
	for _, wl := range []*workloads.Workload{
		workloads.RacyCounter(3, 4, false),
		workloads.GuardedCounter(3, 4),
		workloads.Sharded(3, 4),
		workloads.ProdCons(20),
	} {
		sess, err := OpenSession(wl.Name+".mpl", wl.Src, Options{Quantum: 1})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		sess.Execution().Races()
		st := sess.Stats()
		if got := st.Timer("analysis.absint").Count; got != 0 {
			t.Errorf("%s: analysis.absint ran %d time(s), want 0", wl.Name, got)
		}
		if got := st.Timer("compile.absint").Count; got != 1 {
			t.Errorf("%s: compile.absint ran %d time(s), want 1", wl.Name, got)
		}
		got, err := sess.RaceReport()
		if err != nil {
			t.Fatal(err)
		}
		globals := sess.Program().Artifacts().Prog.Globals
		want := race.Report(race.Naive(sess.Execution().Controller().Parallel()),
			func(gid int) string { return globals[gid].Name })
		if got != want {
			t.Errorf("%s: pruned race report differs from the unpruned reference:\n got: %s\nwant: %s", wl.Name, got, want)
		}
		sess.Close()
	}
}

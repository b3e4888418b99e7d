package analysis_test

import (
	"encoding/json"
	"strings"
	"testing"

	"ppd/internal/analysis"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// analyze compiles src and runs every pass.
func analyze(t *testing.T, src string) *analysis.Result {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return analysis.Analyze(art.PDG, art.Prog, nil)
}

// codes extracts the diagnostic codes in report order.
func codes(r *analysis.Result) []string {
	var out []string
	for _, d := range r.Diagnostics {
		out = append(out, d.Code)
	}
	return out
}

func hasCode(r *analysis.Result, code string) bool {
	for _, d := range r.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestRaceCandidateSingleSpawns(t *testing.T) {
	res := analyze(t, `
shared SV;
sem done = 0;
func p1() { SV = 1; V(done); }
func p2() { SV = 2; V(done); }
func main() { spawn p1(); spawn p2(); P(done); P(done); print(SV); }`)
	if !hasCode(res, "race-candidate") {
		t.Fatalf("two writers must be a race candidate; got %v", codes(res))
	}
	m := res.Conflicts
	if !m.MayConflict(0) {
		t.Fatalf("SV (gid 0) must be in the conflict mask: %s", m)
	}
	if m.Mask().Count() != 1 {
		t.Fatalf("only SV conflicts, mask = %s", m.Mask())
	}
}

func TestNoCandidateWithoutConcurrency(t *testing.T) {
	res := analyze(t, `
shared SV = 1;
func bump() { SV = SV + 1; }
func main() { bump(); bump(); print(SV); }`)
	if len(res.Diagnostics) != 0 {
		t.Fatalf("sequential program must be clean, got %v", codes(res))
	}
	if res.Conflicts.NumCandidates() != 0 {
		t.Fatalf("no spawn ⇒ empty conflict mask, got %s", res.Conflicts.Mask())
	}
}

// TestMultiplicity pins the at-most-once analysis: one loop-free spawn of
// a writer is a single instance (no self-conflict), while a spawn inside
// a loop is "many" and self-conflicts.
func TestMultiplicity(t *testing.T) {
	single := analyze(t, `
shared SV;
sem done = 0;
func w() { SV = SV + 1; V(done); }
func main() { spawn w(); P(done); }`)
	if hasCode(single, "race-candidate") {
		t.Fatalf("single writer instance cannot self-conflict: %v", codes(single))
	}
	looped := analyze(t, `
shared SV;
sem done = 0;
func w() { SV = SV + 1; V(done); }
func main() {
	var i = 0;
	while (i < 3) { spawn w(); i = i + 1; }
	i = 0;
	while (i < 3) { P(done); i = i + 1; }
}`)
	if !hasCode(looped, "race-candidate") {
		t.Fatalf("loop-spawned writer must self-conflict: %v", codes(looped))
	}
	if !strings.Contains(looped.Text(), "multiple instances") {
		t.Fatalf("diagnostic should mention instance multiplicity:\n%s", looped.Text())
	}
}

// TestLockCycleInterprocedural checks that held-sets flow through plain
// calls: main P(a) then calls f which P(b); a spawned worker acquires in
// the opposite order.
func TestLockCycleInterprocedural(t *testing.T) {
	res := analyze(t, `
sem a = 1;
sem b = 1;
sem done = 0;
func f() { P(b); V(b); }
func w() { P(b); P(a); V(a); V(b); V(done); }
func main() { spawn w(); P(a); f(); V(a); P(done); }`)
	if !hasCode(res, "lock-cycle") {
		t.Fatalf("inverted interprocedural lock order must be flagged: %v", codes(res))
	}
	var diag string
	for _, d := range res.Diagnostics {
		if d.Code == "lock-cycle" {
			diag = d.Message
			if len(d.Related) < 2 {
				t.Fatalf("cycle diagnostic should carry one note per edge, got %d", len(d.Related))
			}
		}
	}
	if !strings.Contains(diag, "a -> b -> a") && !strings.Contains(diag, "b -> a -> b") {
		t.Fatalf("cycle rendering unexpected: %q", diag)
	}
}

// TestSignalSemaphoresExcluded pins the P(done); P(done) join idiom:
// counting semaphores that start at 0 order events and must not enter the
// lock-order graph.
func TestSignalSemaphoresExcluded(t *testing.T) {
	res := analyze(t, `
sem done = 0;
func w() { V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`)
	if hasCode(res, "lock-cycle") {
		t.Fatalf("join idiom on a signal semaphore is not a lock cycle: %v", codes(res))
	}
}

func TestSemPairingLints(t *testing.T) {
	res := analyze(t, `
sem never = 0;
sem ghost = 1;
sem leak = 0;
func main() { V(never); P(leak); }`)
	for _, want := range []string{"sem-never-acquired", "sem-unused", "sem-never-released"} {
		if !hasCode(res, want) {
			t.Errorf("missing %s in %v", want, codes(res))
		}
	}
	if !strings.Contains(res.Text(), "blocks forever") {
		t.Errorf("P on a never-V'd 0-semaphore should warn about blocking:\n%s", res.Text())
	}
}

func TestChanLints(t *testing.T) {
	res := analyze(t, `
chan idle[2];
chan dry[2];
func main() { var v = recv(dry); print(v); }`)
	if !hasCode(res, "chan-unused") || !hasCode(res, "chan-never-sent") {
		t.Fatalf("channel lints missing: %v", codes(res))
	}
}

func TestUninitRead(t *testing.T) {
	res := analyze(t, `
shared total;
func main() { print(total); }`)
	if !hasCode(res, "uninit-read") {
		t.Fatalf("read of never-written shared scalar must be flagged: %v", codes(res))
	}
	clean := analyze(t, `
shared total;
func fill() { total = 42; }
func main() { fill(); print(total); }`)
	if hasCode(clean, "uninit-read") {
		t.Fatalf("a call-effect write reaches the read: %v", codes(clean))
	}
}

func TestDeadStore(t *testing.T) {
	res := analyze(t, `
func main() {
	var x = 1;
	x = 2;
	print(x);
}`)
	if !hasCode(res, "dead-store") {
		t.Fatalf("overwritten initializer is a dead store: %v", codes(res))
	}
	clean := analyze(t, `
func main() {
	var x = 1;
	print(x);
	x = 2;
	print(x);
}`)
	if hasCode(clean, "dead-store") {
		t.Fatalf("both stores are read: %v", codes(clean))
	}
}

func TestUnusedShared(t *testing.T) {
	res := analyze(t, `
shared dead;
shared sink;
func main() { sink = 1; }`)
	if !hasCode(res, "unused-shared") || !hasCode(res, "write-only-shared") {
		t.Fatalf("unused-shared lints missing: %v", codes(res))
	}
}

func TestResultTextAndJSON(t *testing.T) {
	res := analyze(t, `
shared SV;
sem done = 0;
func w() { SV = 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); print(SV); }`)
	text := res.Text()
	if !strings.Contains(text, "warning") || !strings.Contains(text, "test.mpl:") {
		t.Fatalf("text rendering incomplete:\n%s", text)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Diagnostics []struct {
			Code string `json:"code"`
			Pos  string `json:"pos"`
			Line int    `json:"line"`
		} `json:"diagnostics"`
		Warnings   int `json:"warnings"`
		Candidates int `json:"race_candidate_vars"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if decoded.Warnings == 0 || decoded.Candidates == 0 || len(decoded.Diagnostics) == 0 {
		t.Fatalf("JSON summary incomplete: %s", data)
	}
	if decoded.Diagnostics[0].Line == 0 || !strings.Contains(decoded.Diagnostics[0].Pos, "test.mpl") {
		t.Fatalf("JSON diagnostics carry no position: %s", data)
	}
}

func TestAnalyzeObsScopes(t *testing.T) {
	art, err := compile.Compile(source.NewFile("obs.mpl", workloads.ProdCons(20).Src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.New()
	analysis.Analyze(art.PDG, art.Prog, sink)
	snap := sink.Snapshot()
	for _, pass := range analysis.PassNames() {
		if snap.Timers["analysis."+pass].Count == 0 {
			t.Errorf("missing timer for pass %s; timers: %v", pass, snap.Timers)
		}
	}
	if snap.Timers["analysis.total"].Count == 0 {
		t.Error("missing analysis.total scope")
	}
}

func BenchmarkStaticAnalysis(b *testing.B) {
	for _, wl := range workloads.Standard() {
		art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				analysis.Analyze(art.PDG, art.Prog, nil)
			}
		})
	}
}

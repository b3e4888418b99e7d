package controller

import (
	"ppd/internal/source"
	"strings"
	"sync"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/dynpdg"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/sched"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

func session(t *testing.T, src string, opts vm.Options) *Controller {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts.Mode = vm.ModeLog
	v := vm.New(art.Prog, opts)
	_ = v.Run()
	return fromRun(art, v, Config{})
}

// fromRun builds a controller over a finished ModeLog VM, taking the
// execution outcome from the VM and everything else from cfg.
func fromRun(art *compile.Artifacts, v *vm.VM, cfg Config) *Controller {
	cfg.Failure, cfg.Deadlock = v.Failure, v.Deadlock
	return New(art, v.Log, cfg)
}

func TestThreePhasePipeline(t *testing.T) {
	// E11: preparatory -> execution -> debugging, asserting each artifact.
	src := `
var g = 1;
func f(a int) int {
	g = g + a;
	return g * 2;
}
func main() {
	var r = f(20) / (g - 21);
	print(r);
}`
	art, err := compile.Compile(source.NewFile("pipeline.mpl", src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// Preparatory artifacts.
	if art.Prog == nil || art.PDG == nil || art.Plan == nil || art.DB == nil {
		t.Fatal("missing preparatory artifacts")
	}
	if art.Prog.NumInstrs() == 0 || len(art.Plan.Blocks) == 0 {
		t.Fatal("empty object code or e-block plan")
	}

	// Execution phase: g becomes 21, division by (21-21) fails at main.
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog})
	rerr := v.Run()
	if rerr == nil {
		t.Fatal("expected division by zero")
	}
	if v.Log == nil || v.Log.NumProcs() != 1 {
		t.Fatal("no logs")
	}

	// Debugging phase.
	c := fromRun(art, v, Config{})
	if c.Failure == nil {
		t.Fatal("controller lost the failure")
	}
	sum := c.Summary()
	if !strings.Contains(sum, "division by zero") {
		t.Errorf("summary = %s", sum)
	}
	g, idx, err := c.CurrentGraph(0)
	if err != nil {
		t.Fatalf("current graph: %v", err)
	}
	if idx < 0 || g.LastNode() == nil {
		t.Fatal("no focus graph")
	}
	// The failing statement's node exists and flowback from it reaches the
	// f sub-graph node.
	last := c.FocusNode(g, 0)
	if last.Stmt != c.Failure.Stmt {
		t.Errorf("focus node stmt = %d, want failing stmt %d", last.Stmt, c.Failure.Stmt)
	}
	frag := Flowback(g, last.ID, 5)
	foundF := false
	for _, n := range frag {
		if n.Kind == dynpdg.NodeSubGraph && n.Label == "f" {
			foundF = true
		}
	}
	if !foundF {
		t.Errorf("flowback from failure should reach f's sub-graph node:\n%s",
			RenderFragment(g, last.ID, 5))
	}
}

func TestFocusIntervalPrefersOpen(t *testing.T) {
	c := session(t, `
func ok() { print(1); }
func crash() { print(1 / 0); }
func main() {
	ok();
	crash();
}`, vm.Options{})
	idx, err := c.FocusInterval(0)
	if err != nil {
		t.Fatal(err)
	}
	rec := c.Log.Books[0].Records[idx]
	fn := c.Art.Prog.Funcs[c.Art.Prog.Blocks[rec.Block].FuncIdx]
	if fn.Name != "crash" {
		t.Errorf("focus = %s, want crash (the open interval)", fn.Name)
	}
}

func TestFocusIntervalCompletedRun(t *testing.T) {
	c := session(t, `
func f() { print(1); }
func main() { f(); }`, vm.Options{})
	idx, err := c.FocusInterval(0)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 {
		t.Fatal("no focus for completed run")
	}
	if _, err := c.FocusInterval(5); err == nil {
		t.Error("expected error for bad pid")
	}
}

func TestGraphCaching(t *testing.T) {
	c := session(t, `func main() { var a = 1; var b = a + 1; }`, vm.Options{})
	g1, idx, err := c.CurrentGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Graph(0, idx)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("graphs should be cached per interval")
	}
	if c.Result(0, idx) == nil {
		t.Error("emulation result should be cached")
	}
}

func TestCrossProcessResolution(t *testing.T) {
	// Main reads sv written by the worker; resolving the @pre node must
	// point at the worker's writing edge and its interval.
	src := `
shared sv;
sem done = 0;
func w() {
	sv = 77;
	V(done);
}
func main() {
	spawn w();
	P(done);
	var x = sv + 1;
	print(x);
}`
	c := session(t, src, vm.Options{Quantum: 1})
	g, idx, err := c.CurrentGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	// Find the sv@pre node.
	var pre *dynpdg.Node
	for _, n := range g.Nodes {
		if n.Kind == dynpdg.NodeInitial && strings.HasPrefix(n.Label, "sv") {
			pre = n
		}
	}
	if pre == nil {
		t.Fatalf("no sv@pre node:\n%s", g)
	}
	gid := c.Art.Info.GlobalByName("sv").GlobalID
	ref := c.ResolveInitial(0, idx, gid)
	if ref == nil {
		t.Fatal("cross-process resolution failed")
	}
	if ref.PID != 1 {
		t.Errorf("writer pid = %d, want 1", ref.PID)
	}
	if ref.Racy {
		t.Error("ordered write reported racy")
	}
	if ref.PrelogIdx < 0 {
		t.Fatal("no writer interval")
	}
	// Emulate the writer's interval and confirm the write is there.
	wg, err := c.Graph(ref.PID, ref.PrelogIdx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range wg.Nodes {
		if n.Label == "sv" && n.Value == 77 {
			found = true
		}
	}
	if !found {
		t.Errorf("writer graph lacks sv=77:\n%s", wg)
	}
}

func TestCrossProcessRacyResolution(t *testing.T) {
	src := `
shared sv;
sem done = 0;
func w1() { sv = 1; V(done); }
func w2() { sv = 2; V(done); }
func main() {
	spawn w1();
	spawn w2();
	P(done);
	P(done);
	print(sv);
}`
	c := session(t, src, vm.Options{Quantum: 1})
	_, idx, err := c.CurrentGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	gid := c.Art.Info.GlobalByName("sv").GlobalID
	ref := c.ResolveInitial(0, idx, gid)
	if ref == nil {
		t.Fatal("no resolution")
	}
	// Hmm: both writes precede main's read *through the semaphore*, so the
	// read itself is ordered; but the two writers race with each other.
	// The races query must report it.
	if len(c.Races()) == 0 {
		t.Error("w1/w2 write/write race not detected")
	}
}

func TestRaceReportNames(t *testing.T) {
	c := session(t, `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`, vm.Options{Quantum: 1})
	rep := c.RaceReport()
	if !strings.Contains(rep, "counter") {
		t.Errorf("report must name the variable:\n%s", rep)
	}
}

func TestRenderFragment(t *testing.T) {
	c := session(t, `
func main() {
	var a = 2;
	var b = a * 3;
	var d = b - 6;
	var x = 10 / d;
}`, vm.Options{})
	g, _, err := c.CurrentGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	last := g.LastNode()
	out := RenderFragment(g, last.ID, 3)
	for _, want := range []string{"[d]", "[b]", "[a]", "data"} {
		if !strings.Contains(out, want) {
			t.Errorf("fragment missing %q:\n%s", want, out)
		}
	}
}

func TestDeadlockSummary(t *testing.T) {
	c := session(t, `
sem s = 0;
func main() { P(s); }`, vm.Options{})
	if !c.Deadlock {
		t.Fatal("deadlock not recorded")
	}
	if !strings.Contains(c.Summary(), "deadlock") {
		t.Error("summary must mention deadlock")
	}
}

// prelogs enumerates every prelog record index of a process's book.
func prelogs(c *Controller, pid int) []int {
	var out []int
	for i, r := range c.Log.Books[pid].Records {
		if r.Kind == logging.RecPrelog {
			out = append(out, i)
		}
	}
	return out
}

// TestGraphCacheSkipsReemulation proves the memoization contract: the
// second identical Graph query is served from the cache with zero VM
// re-executions, observed through the emulation hook counter.
func TestGraphCacheSkipsReemulation(t *testing.T) {
	c := session(t, `
func f(a int) int { return a * 2; }
func main() { print(f(21)); }`, vm.Options{})
	if c.Emulations() != 0 {
		t.Fatalf("fresh controller already emulated %d times", c.Emulations())
	}
	_, idx, err := c.CurrentGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	after1 := c.Emulations()
	if after1 == 0 {
		t.Fatal("first Graph call must emulate")
	}
	g2, err := c.Graph(0, idx)
	if err != nil {
		t.Fatal(err)
	}
	if g2 == nil {
		t.Fatal("cached graph missing")
	}
	if got := c.Emulations(); got != after1 {
		t.Errorf("second Graph call re-emulated: counter %d -> %d", after1, got)
	}
	// Result and ResolveInitial ride the same cache: still no re-emulation.
	if c.Result(0, idx) == nil {
		t.Error("Result must hit the cache")
	}
	if got := c.Emulations(); got != after1 {
		t.Errorf("Result re-emulated: counter %d -> %d", after1, got)
	}
}

// TestCacheLRUEviction bounds the cache at one entry and alternates between
// two intervals: each switch must evict the other entry and re-emulate,
// while repeated queries of the resident entry must not.
func TestCacheLRUEviction(t *testing.T) {
	const src = `
func f() { print(1); }
func g() { print(2); }
func main() { f(); g(); }`
	c := sessionConfig(t, src, vm.Options{}, Config{CacheBound: 1})
	idxs := prelogs(c, 0)
	if len(idxs) < 3 {
		t.Fatalf("want >=3 intervals (main, f, g), got %d", len(idxs))
	}

	a, b := idxs[1], idxs[2]
	if _, err := c.Graph(0, a); err != nil {
		t.Fatal(err)
	}
	n1 := c.Emulations()
	if _, err := c.Graph(0, a); err != nil {
		t.Fatal(err)
	}
	if c.Emulations() != n1 {
		t.Fatal("resident entry re-emulated")
	}
	if _, err := c.Graph(0, b); err != nil { // evicts a
		t.Fatal(err)
	}
	n2 := c.Emulations()
	if n2 == n1 {
		t.Fatal("miss on b did not emulate")
	}
	if c.Result(0, a) != nil {
		t.Error("a should have been evicted by the bound of 1")
	}
	if _, err := c.Graph(0, a); err != nil { // a must be rebuilt
		t.Fatal(err)
	}
	if c.Emulations() == n2 {
		t.Error("evicted entry served without re-emulation")
	}

	// A bound of 8 keeps both resident.
	c = sessionConfig(t, src, vm.Options{}, Config{CacheBound: 8})
	if _, err := c.Graph(0, a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(0, b); err != nil {
		t.Fatal(err)
	}
	n3 := c.Emulations()
	if _, err := c.Graph(0, a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(0, b); err != nil {
		t.Fatal(err)
	}
	if c.Emulations() != n3 {
		t.Error("bound of 8 must hold both intervals")
	}
}

// TestPrefetchNeighborsWarmsCache prefetches around the focus interval and
// then checks the sibling/cross-process queries are all cache hits.
func TestPrefetchNeighborsWarmsCache(t *testing.T) {
	src := `
shared sv;
sem done = 0;
func w() {
	sv = 77;
	V(done);
}
func main() {
	spawn w();
	P(done);
	var x = sv + 1;
	print(x);
}`
	c := session(t, src, vm.Options{Quantum: 1})
	_, idx, err := c.CurrentGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	c.PrefetchNeighbors(0, idx)
	warm := c.Emulations()

	// The cross-process writer interval must now be resident: resolving and
	// fetching its graph re-emulates nothing.
	gid := c.Art.Info.GlobalByName("sv").GlobalID
	ref := c.ResolveInitial(0, idx, gid)
	if ref == nil {
		t.Fatal("cross-process resolution failed")
	}
	if _, err := c.Graph(ref.PID, ref.PrelogIdx); err != nil {
		t.Fatal(err)
	}
	if got := c.Emulations(); got != warm {
		t.Errorf("writer interval not prefetched: counter %d -> %d", warm, got)
	}
}

// TestRacesMemoized proves the detector runs once per controller.
func TestRacesMemoized(t *testing.T) {
	c := session(t, `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`, vm.Options{Quantum: 1})
	r1 := c.Races()
	if len(r1) == 0 {
		t.Fatal("expected races")
	}
	r2 := c.Races()
	if len(r1) != len(r2) {
		t.Fatalf("memoized race set changed size: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("memoized Races must return the same race objects")
		}
	}
}

// TestConcurrentQueriesAreSafe hammers the controller from several
// goroutines (run under -race in CI's check target).
func TestConcurrentQueriesAreSafe(t *testing.T) {
	src := `
shared sv;
sem done = 0;
func w() { sv = 5; V(done); }
func main() {
	spawn w();
	P(done);
	print(sv);
}`
	c := session(t, src, vm.Options{Quantum: 1})
	idxs0 := prelogs(c, 0)
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				idx := idxs0[(k+rep)%len(idxs0)]
				if _, err := c.Graph(0, idx); err != nil {
					t.Errorf("Graph: %v", err)
				}
				c.PrefetchNeighbors(0, idx)
				c.Races()
				c.Result(0, idx)
			}
		}(k)
	}
	wg.Wait()
}

// sessionConfig is session with an explicit Config.
func sessionConfig(t *testing.T, src string, opts vm.Options, cfg Config) *Controller {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts.Mode = vm.ModeLog
	v := vm.New(art.Prog, opts)
	_ = v.Run()
	return fromRun(art, v, cfg)
}

// prelogIndices lists the record indices of every prelog in pid's book.
func prelogIndices(c *Controller, pid int) []int {
	var out []int
	for i, r := range c.Log.Books[pid].Records {
		if r.Kind == logging.RecPrelog {
			out = append(out, i)
		}
	}
	return out
}

const multiIntervalSrc = `
var g;
func f() { g = g + 1; }
func main() { f(); f(); f(); print(g); }`

func TestConfigCacheCountersAndEvictions(t *testing.T) {
	sink := obs.New()
	c := sessionConfig(t, multiIntervalSrc, vm.Options{}, Config{CacheBound: 1, Obs: sink})
	idxs := prelogIndices(c, 0)
	if len(idxs) < 3 {
		t.Fatalf("need >= 3 intervals, got %d", len(idxs))
	}
	// Bound 1: each distinct interval misses and evicts its predecessor.
	for _, idx := range idxs[:3] {
		if _, err := c.Graph(0, idx); err != nil {
			t.Fatal(err)
		}
	}
	// Re-querying the most recent interval hits; an older one misses again.
	if _, err := c.Graph(0, idxs[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Graph(0, idxs[0]); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	if got := snap.Counter("debug.cache.hits"); got != 1 {
		t.Errorf("debug.cache.hits = %d, want 1", got)
	}
	if got := snap.Counter("debug.cache.misses"); got != 4 {
		t.Errorf("debug.cache.misses = %d, want 4", got)
	}
	if got := snap.Counter("debug.cache.evictions"); got != 3 {
		t.Errorf("debug.cache.evictions = %d, want 3", got)
	}
	if got, want := snap.Timer("debug.emulate").Count, snap.Counter("debug.cache.misses"); got != want {
		t.Errorf("debug.emulate count = %d, want one per miss (%d)", got, want)
	}
	if snap.Timer("debug.build").Count != 1 {
		t.Error("debug.build scope not observed")
	}
}

func TestConfigUnboundedCacheNeverEvicts(t *testing.T) {
	sink := obs.New()
	c := sessionConfig(t, multiIntervalSrc, vm.Options{}, Config{CacheBound: -1, Obs: sink})
	for _, idx := range prelogIndices(c, 0) {
		if _, err := c.Graph(0, idx); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.Snapshot().Counter("debug.cache.evictions"); got != 0 {
		t.Errorf("debug.cache.evictions = %d, want 0 (unbounded)", got)
	}
	if c.cache.len() != len(prelogIndices(c, 0)) {
		t.Errorf("cache len = %d, want every interval retained", c.cache.len())
	}
}

func TestConfigWorkersSelectsPrivatePool(t *testing.T) {
	c := sessionConfig(t, multiIntervalSrc, vm.Options{}, Config{Workers: 3})
	if c.pool == sched.Shared() {
		t.Error("Workers > 0 must not use the shared pool")
	}
	if c.pool.Workers() != 3 {
		t.Errorf("pool workers = %d, want 3", c.pool.Workers())
	}
	// Zero config uses the shared pool (the historical default).
	c2 := sessionConfig(t, multiIntervalSrc, vm.Options{}, Config{})
	if c2.pool != sched.Shared() {
		t.Error("zero Config must keep the shared pool")
	}
}

func TestRacesRunsDetectorOnce(t *testing.T) {
	src := `
shared counter;
sem done = 0;
func w() { counter = counter + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`
	sink := obs.New()
	c := sessionConfig(t, src, vm.Options{Quantum: 1}, Config{Obs: sink})
	r1 := c.Races()
	r2 := c.Races()
	if len(r1) == 0 {
		t.Fatal("expected races")
	}
	if &r1[0] != &r2[0] {
		t.Error("repeated Races() returned a different slice (not memoized)")
	}
	if got := sink.Snapshot().Counter("race.runs"); got != 1 {
		t.Errorf("race.runs = %d, want 1 (detector must run once)", got)
	}
}

// TestGraphEdgeOrderDeterministic builds every interval (up to a cap per
// process) of several workloads twice, through two fresh controllers over
// one execution, and requires the same edge sequence and the same
// RenderFragment text: a graph's edge order, and with it the order of a
// fragment's siblings, must depend on the trace alone.
func TestGraphEdgeOrderDeterministic(t *testing.T) {
	const maxIntervals = 40
	for _, wl := range []*workloads.Workload{
		workloads.Matmul(4),
		workloads.ProdCons(20),
		workloads.TokenRing(3, 4),
		workloads.Divide(5),
		workloads.Histo(4),
		workloads.RacyCounter(3, 4, false),
	} {
		art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			t.Fatalf("%s: compile: %v", wl.Name, err)
		}
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 3, Seed: 1})
		if err := v.Run(); err != nil {
			t.Fatalf("%s: run: %v", wl.Name, err)
		}
		c1, c2 := fromRun(art, v, Config{}), fromRun(art, v, Config{})
		multi := 0 // statements fed by more than one data edge
		for pid := 0; pid < c1.NumProcs(); pid++ {
			idxs := prelogs(c1, pid)
			if len(idxs) > maxIntervals {
				idxs = idxs[:maxIntervals]
			}
			for _, idx := range idxs {
				g1, err1 := c1.Graph(pid, idx)
				g2, err2 := c2.Graph(pid, idx)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s pid %d interval %d: %v / %v", wl.Name, pid, idx, err1, err2)
				}
				if len(g1.Edges) != len(g2.Edges) {
					t.Fatalf("%s pid %d interval %d: %d vs %d edges", wl.Name, pid, idx, len(g1.Edges), len(g2.Edges))
				}
				for i := range g1.Edges {
					if *g1.Edges[i] != *g2.Edges[i] {
						t.Errorf("%s pid %d interval %d: edge %d is %+v in one build, %+v in the other",
							wl.Name, pid, idx, i, *g1.Edges[i], *g2.Edges[i])
						break
					}
				}
				for _, n := range g1.Nodes {
					data := 0
					for _, e := range g1.Incoming(n.ID) {
						if e.Kind == dynpdg.EdgeData {
							data++
						}
					}
					if data > 1 {
						multi++
					}
				}
				if last := g1.LastNode(); last != nil {
					f1 := RenderFragment(g1, last.ID, 4)
					f2 := RenderFragment(g2, g2.LastNode().ID, 4)
					if f1 != f2 {
						t.Errorf("%s pid %d interval %d: fragments differ:\n%s\nvs\n%s", wl.Name, pid, idx, f1, f2)
					}
				}
			}
		}
		if multi == 0 {
			t.Errorf("%s: no node has two data dependences; the order goes unchecked", wl.Name)
		}
	}
}

package race

import (
	"fmt"
	"strings"
	"testing"

	"ppd/internal/analysis"
	"ppd/internal/bitset"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

func detect(t *testing.T, src string, opts vm.Options) ([]*Race, *parallel.Graph, *compile.Artifacts) {
	t.Helper()
	g, art := buildGraph(t, &workloads.Workload{Name: "test.mpl", Src: src}, eblock.Config{}, opts.Quantum, opts.Seed)
	return Detect(g, Opts{}), g, art
}

// buildGraph compiles wl under cfg, runs it logged under (quantum, seed),
// and returns the parallel graph with the artifacts.
func buildGraph(tb testing.TB, wl *workloads.Workload, cfg eblock.Config, quantum int, seed int64) (*parallel.Graph, *compile.Artifacts) {
	tb.Helper()
	art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: cfg})
	if err != nil {
		tb.Fatalf("%s: compile: %v", wl.Name, err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: quantum, Seed: seed})
	if err := v.Run(); err != nil {
		tb.Fatalf("%s: run: %v", wl.Name, err)
	}
	return parallel.Build(v.Log, len(art.Prog.Globals)), art
}

// staticMask is the program's static conflict mask, the filter the
// controller and `ppd races` pass to Detect.
func staticMask(art *compile.Artifacts) *bitset.Set {
	return analysis.Analyze(art.PDG, art.Prog, nil).Conflicts.Mask()
}

// detectWidths are the worker counts every equivalence check covers.
var detectWidths = []int{1, 2, 4, 8}

// checkDetectEquivalent is the cross-detector golden contract: Detect at
// every width, unfiltered and filtered by mask, must render the exact race
// set of the Naive oracle — same order, same pairs, same kinds, same
// variables. It returns the oracle's races.
func checkDetectEquivalent(t *testing.T, ctx string, g *parallel.Graph, mask *bitset.Set) []*Race {
	t.Helper()
	naive := Naive(g)
	want := renderAll(naive)
	for _, workers := range detectWidths {
		for _, m := range []*bitset.Set{nil, mask} {
			if got := renderAll(Detect(g, Opts{Workers: workers, Mask: m})); got != want {
				t.Errorf("%s workers %d mask %v: Detect diverges from Naive\ngot:\n%swant:\n%s",
					ctx, workers, m, got, want)
			}
		}
	}
	return naive
}

// TestSection63Race reproduces the paper's §6.3 example: SV written in
// edge e1 (P1) and read in edge e3 (P3), properly ordered through
// synchronization — race-free. Adding an unsynchronized write in edge e2
// (P2) creates a race.
func TestSection63RaceFreeCase(t *testing.T) {
	src := `
shared SV;
sem s1 = 0;
sem done = 0;
func p1() {
	SV = 10;
	V(s1);
	V(done);
}
func p3() {
	P(s1);
	print(SV);
	V(done);
}
func main() {
	spawn p1();
	spawn p3();
	P(done);
	P(done);
}`
	races, g, _ := detect(t, src, vm.Options{Quantum: 1})
	if len(races) != 0 {
		t.Errorf("expected race-free instance, got:\n%s\ngraph:\n%s",
			Report(races, func(i int) string { return "g" }), g)
	}
	if !RaceFree(g) {
		t.Error("RaceFree must agree")
	}
}

func TestSection63RaceCase(t *testing.T) {
	// Same as above plus p2's unsynchronized write to SV: now the write in
	// p2 races with both p1's write and p3's read.
	src := `
shared SV;
sem s1 = 0;
sem done = 0;
func p1() {
	SV = 10;
	V(s1);
	V(done);
}
func p2() {
	SV = 20;
	V(done);
}
func p3() {
	P(s1);
	print(SV);
	V(done);
}
func main() {
	spawn p1();
	spawn p2();
	spawn p3();
	P(done);
	P(done);
	P(done);
}`
	races, g, art := detect(t, src, vm.Options{Quantum: 1})
	if len(races) == 0 {
		t.Fatalf("expected races, found none:\n%s", g)
	}
	kinds := map[Conflict]bool{}
	for _, r := range races {
		kinds[r.Kind] = true
		for _, v := range r.Vars {
			if art.Info.Globals[v].Name != "SV" {
				t.Errorf("race on %s, want SV", art.Info.Globals[v].Name)
			}
		}
	}
	if !kinds[WriteWrite] {
		t.Error("missing write/write race (p1 vs p2)")
	}
	if !kinds[WriteRead] && !kinds[ReadWrite] {
		t.Error("missing write/read race (p2 vs p3)")
	}
}

func TestProtectedCounterRaceFree(t *testing.T) {
	src := `
shared counter;
sem m = 1;
sem done = 0;
func w() {
	var i = 0;
	while (i < 5) {
		P(m);
		counter = counter + 1;
		V(m);
		i = i + 1;
	}
	V(done);
}
func main() {
	spawn w();
	spawn w();
	P(done);
	P(done);
	print(counter);
}`
	for _, seed := range []int64{0, 1, 9} {
		races, _, _ := detect(t, src, vm.Options{Quantum: 1, Seed: seed})
		if len(races) != 0 {
			t.Errorf("seed %d: mutex-protected counter reported racy: %v", seed, races)
		}
	}
}

func TestUnprotectedCounterRaces(t *testing.T) {
	src := `
shared counter;
sem done = 0;
func w() {
	counter = counter + 1;
	V(done);
}
func main() {
	spawn w();
	spawn w();
	P(done);
	P(done);
}`
	races, _, _ := detect(t, src, vm.Options{Quantum: 1})
	if len(races) == 0 {
		t.Fatal("unprotected counter must race")
	}
	// Both write/write and read/write conflicts exist.
	kinds := map[Conflict]bool{}
	for _, r := range races {
		kinds[r.Kind] = true
	}
	if !kinds[WriteWrite] {
		t.Error("missing write/write")
	}
}

func TestRaceOnArray(t *testing.T) {
	src := `
shared buf[4];
sem done = 0;
func w(i int) { buf[i] = i; V(done); }
func main() {
	spawn w(0);
	spawn w(1);
	P(done);
	P(done);
}`
	races, _, _ := detect(t, src, vm.Options{Quantum: 1})
	// Arrays are treated as single variables (conservative): concurrent
	// element writes report as a potential write/write race.
	if len(races) == 0 {
		t.Error("concurrent array writes should report a (conservative) race")
	}
}

func TestMessagePassingOrdersAccesses(t *testing.T) {
	src := `
shared sv;
chan c;
func producer() {
	sv = 99;
	send(c, 1);
}
func main() {
	spawn producer();
	var x = recv(c);
	print(sv + x);
}`
	races, _, _ := detect(t, src, vm.Options{Quantum: 1})
	if len(races) != 0 {
		t.Errorf("message-ordered accesses reported racy: %v", races)
	}
}

func TestReportRendering(t *testing.T) {
	e1 := &parallel.InternalEdge{ID: 0, PID: 0, Reads: bitset.New(1), Writes: bitset.FromSlice(1, []int{0})}
	e2 := &parallel.InternalEdge{ID: 1, PID: 1, Reads: bitset.New(1), Writes: bitset.FromSlice(1, []int{0})}
	r := &Race{E1: e1, E2: e2, Kind: WriteWrite, Vars: []int{0}}
	got := Report([]*Race{r}, func(int) string { return "SV" })
	if !strings.Contains(got, "write/write") || !strings.Contains(got, "SV") {
		t.Errorf("report = %s", got)
	}
	empty := Report(nil, func(int) string { return "" })
	if !strings.Contains(empty, "race-free") {
		t.Errorf("empty report = %s", empty)
	}
	_ = logging.OpP
}

// agreeSources are small hand-written programs for the detector
// equivalence check: racy, lock-protected, and conflict-free.
var agreeSources = []string{
	// racy
	`
shared a; shared b;
sem done = 0;
func w1() { a = 1; b = a + 1; V(done); }
func w2() { b = 2; a = b * 3; V(done); }
func main() { spawn w1(); spawn w2(); P(done); P(done); }`,
	// race-free
	`
shared a;
sem m = 1;
sem done = 0;
func w() { P(m); a = a + 1; V(m); V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`,
	// disjoint variables: no conflicts at all
	`
shared a; shared b;
sem done = 0;
func w1() { a = 1; V(done); }
func w2() { b = 2; V(done); }
func main() { spawn w1(); spawn w2(); P(done); P(done); }`,
}

// TestNaiveAndIndexedAgree holds Detect to the Naive oracle
// (checkDetectEquivalent) on the hand-written agreeSources under two
// seeds.
func TestNaiveAndIndexedAgree(t *testing.T) {
	for i, src := range agreeSources {
		wl := &workloads.Workload{Name: fmt.Sprintf("agree%d", i), Src: src}
		for _, seed := range []int64{0, 4} {
			g, art := buildGraph(t, wl, eblock.Config{}, 1, seed)
			checkDetectEquivalent(t, fmt.Sprintf("%s seed %d", wl.Name, seed), g, staticMask(art))
		}
	}
}

// TestDetectorsEquivalence holds Detect to the Naive oracle
// (checkDetectEquivalent) on every standard workload and on seeded racy
// and sharded ones. Determinism is the product: the parallel scan is only
// admissible because of this test.
func TestDetectorsEquivalence(t *testing.T) {
	type caseDef struct {
		wl      *workloads.Workload
		quantum int
		seed    int64
	}
	var cases []caseDef
	for _, wl := range workloads.Standard() {
		cases = append(cases, caseDef{wl, 3, 0})
	}
	cases = append(cases,
		caseDef{workloads.RacyCounter(4, 6, false), 1, 0},
		caseDef{workloads.RacyCounter(4, 6, false), 1, 7},
		caseDef{workloads.RacyCounter(3, 5, true), 1, 3},
		caseDef{workloads.Sharded(4, 8), 3, 0},
	)
	for _, tc := range cases {
		g, art := buildGraph(t, tc.wl, eblock.Config{}, tc.quantum, tc.seed)
		checkDetectEquivalent(t, fmt.Sprintf("%s seed %d", tc.wl.Name, tc.seed), g, staticMask(art))
	}
}

// TestRacyCounterHasRacesAcrossDetectors seeds a genuinely racy workload
// and checks the detectors agree it races.
func TestRacyCounterHasRacesAcrossDetectors(t *testing.T) {
	wl := workloads.RacyCounter(3, 4, false)
	g, art := buildGraph(t, wl, eblock.Config{}, 1, 0)
	if races := checkDetectEquivalent(t, wl.Name, g, staticMask(art)); len(races) == 0 {
		t.Fatal("unprotected counter must race")
	}
}

// checkDetectObs pins the detector metrics perfbench reads on wl run
// logged under quantum: at every width Detect renders Naive's races,
// reports one run, its race count and the debug.race scope, and tests the
// same candidate pairs — the workers split the buckets, never the pairs.
// It returns the oracle's races.
func checkDetectObs(t *testing.T, wl *workloads.Workload, quantum int) []*Race {
	t.Helper()
	g, _ := buildGraph(t, wl, eblock.Config{}, quantum, 0)
	want := Naive(g)
	pairs := int64(-1)
	for _, workers := range detectWidths {
		sink := obs.New()
		got := Detect(g, Opts{Workers: workers, Sink: sink})
		if Report(got, gidName) != Report(want, gidName) {
			t.Errorf("%s workers %d: Detect != Naive:\n%s\nvs\n%s",
				wl.Name, workers, Report(got, gidName), Report(want, gidName))
		}
		snap := sink.Snapshot()
		if n := snap.Counter("race.runs"); n != 1 {
			t.Errorf("%s workers %d: race.runs = %d, want 1", wl.Name, workers, n)
		}
		if n := snap.Counter("race.races"); n != int64(len(want)) {
			t.Errorf("%s workers %d: race.races = %d, want %d", wl.Name, workers, n, len(want))
		}
		if snap.Timer("debug.race").Count != 1 {
			t.Errorf("%s workers %d: debug.race scope not observed", wl.Name, workers)
		}
		p := snap.Counter("race.pairs")
		if p < int64(len(want)) {
			t.Errorf("%s workers %d: race.pairs = %d, want >= %d (every race was a checked pair)",
				wl.Name, workers, p, len(want))
		}
		if pairs >= 0 && p != pairs {
			t.Errorf("%s workers %d: race.pairs = %d, want %d as at the other widths",
				wl.Name, workers, p, pairs)
		}
		pairs = p
	}
	return want
}

// TestIndexedObsCountersAndEquivalence checks the detector metrics
// (checkDetectObs) on a small racy program.
func TestIndexedObsCountersAndEquivalence(t *testing.T) {
	racy := &workloads.Workload{Name: "racy", Src: `
shared a;
shared b;
sem done = 0;
func w() { a = a + 1; b = b + 1; V(done); }
func main() { spawn w(); spawn w(); P(done); P(done); }`}
	if races := checkDetectObs(t, racy, 1); len(races) == 0 {
		t.Fatal("test program must race")
	}
}

// TestParallelObsMatchesIndexedObs checks the detector metrics
// (checkDetectObs) on the sharded shape, whose many per-variable buckets
// spread over the workers.
func TestParallelObsMatchesIndexedObs(t *testing.T) {
	checkDetectObs(t, workloads.Sharded(4, 20), 3)
}

func gidName(gid int) string { return fmt.Sprintf("g%d", gid) }

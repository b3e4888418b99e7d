package compile

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"ppd/internal/eblock"
	"ppd/internal/mplgen"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// hydratePrograms are the sync-heavy triage families at their triage
// sizes, and one racy and one race-free mplgen program from the
// 1,800–2,200-byte band the triage benchmark draws its generated programs
// from.
func hydratePrograms() []*workloads.Workload {
	rng := rand.New(rand.NewSource(101))
	return []*workloads.Workload{
		workloads.RacyTicker(4, 60),
		workloads.TokenRing(4, 40),
		workloads.ProdCons(150),
		workloads.Sharded(4, 40),
		{Name: "mplgen-racy", Src: generateInBand(rng, mplgen.RacyConfig())},
		{Name: "mplgen-par", Src: generateInBand(rng, mplgen.ParallelConfig())},
	}
}

// generateInBand draws mplgen programs from rng until one's source is
// 1,800 to 2,200 bytes long.
func generateInBand(rng *rand.Rand, cfg mplgen.Config) string {
	for {
		if src := mplgen.Generate(rng.Int63(), cfg); len(src) >= 1800 && len(src) <= 2200 {
			return src
		}
	}
}

// warmHydrate returns a function that hydrates a fresh shallow artifact
// over wl's cache-loaded program, as a warm cache hit does on its first
// debugging-phase query. The bytecode and persisted vet are shared across
// calls, as Hydrate never writes them.
func warmHydrate(tb testing.TB, wl *workloads.Workload) func() {
	tb.Helper()
	cfg := eblock.DefaultConfig()
	dir := tb.TempDir()
	file := source.NewFile(wl.Name+".mpl", wl.Src)
	if _, err := Compile(file, Opts{Config: cfg, CacheDir: dir}); err != nil {
		tb.Fatal(err)
	}
	warm, err := Compile(file, Opts{Config: cfg, CacheDir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	if warm.Hydrated() {
		tb.Fatal("warm load is not a cache hit")
	}
	return func() {
		a := &Artifacts{File: file, Prog: warm.Prog, cfg: cfg, preVet: warm.preVet}
		if err := a.Hydrate(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkHydrate times the rebuild a warm cache hit pays on its first
// debugging-phase query, over hydratePrograms.
func BenchmarkHydrate(b *testing.B) {
	for _, wl := range hydratePrograms() {
		b.Run(wl.Name, func(b *testing.B) {
			hydrate := warmHydrate(b, wl)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hydrate()
			}
		})
	}
}

// TestHydrateAllocsCeiling gates the allocations of one hydrate over
// BenchmarkHydrate's programs. When the per-function passes ran through a
// worker pool and merged per-function partials, the four families'
// hydrates made 1,522, 2,422, 2,355 and 3,416 allocations here (one CPU,
// the pool inline). Before the passes carved their sets and nodes from
// slabs and stopped re-walking the AST they made 1,490, 2,378, 2,308 and
// 3,361, and the two mplgen programs 5,983 and 6,085; now 439, 640, 683,
// 885, 1,320 and 1,348.
func TestHydrateAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ceiling := map[string]float64{
		"racy-ticker": 445, "tokenring": 650, "prodcons": 690, "sharded-4x40": 895,
		"mplgen-racy": 1335, "mplgen-par": 1365,
	}
	for _, wl := range hydratePrograms() {
		checkCeiling(t, wl.Name+" hydrate", testing.AllocsPerRun(3, warmHydrate(t, wl)), ceiling[wl.Name])
	}
}

// TestCompileAllocsCeiling gates the allocations of a cold compile of the
// widest program, Sharded 64×4 (BenchmarkCompileCached/cold). The
// worker-pool pipeline made 93,673 allocations here, the sequential one
// 93,070 before its passes allocated from slabs, and 41,952 after.
func TestCompileAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := workloads.Sharded(64, 4)
	got := testing.AllocsPerRun(3, func() {
		if _, err := Compile(source.NewFile(w.Name, w.Src), Opts{Config: eblock.DefaultConfig()}); err != nil {
			t.Fatal(err)
		}
	})
	checkCeiling(t, w.Name+" cold compile", got, 42400)
}

func checkCeiling(t *testing.T, what string, got, ceiling float64) {
	t.Helper()
	if got > ceiling {
		t.Errorf("%s: %v allocs/op, ceiling %v", what, got, ceiling)
	} else {
		t.Logf("%s: %v allocs/op (ceiling %v)", what, got, ceiling)
	}
}

package controller

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// triageRun is one logged run of a triage program: the artifacts and the
// log a fresh controller starts from.
type triageRun struct {
	name string
	art  *compile.Artifacts
	v    *vm.VM
}

// triageRuns logs the four triage shapes BenchmarkTriageRaces covers at
// perfbench triage's sizes and quantum (3), under seed.
func triageRuns(tb testing.TB, seed int64) []triageRun {
	tb.Helper()
	var out []triageRun
	for _, wl := range []*workloads.Workload{
		workloads.RacyTicker(4, 60),
		workloads.Sharded(4, 40),
		workloads.TokenRing(4, 40),
		workloads.ProdCons(150),
	} {
		art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			tb.Fatal(err)
		}
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 3, Seed: seed})
		if err := v.Run(); err != nil {
			tb.Fatal(err)
		}
		out = append(out, triageRun{name: wl.Name, art: art, v: v})
	}
	return out
}

// triageOp is the debugging-phase half of a triage op: a fresh
// controller over the logged run, its races and its race report.
func triageOp(r triageRun) string {
	c := New(r.art, r.v.Log, Config{Failure: r.v.Failure, Deadlock: r.v.Deadlock, Obs: obs.New()})
	c.Races()
	return c.RaceReport()
}

// BenchmarkTriageRaces times the debugging-phase half of perfbench's
// triage op on its four heaviest shapes: a fresh controller, Races and
// RaceReport over one logged run (seed 1). races/op is the report's race
// count and pairs/op the detector's race.pairs.
func BenchmarkTriageRaces(b *testing.B) {
	for _, r := range triageRuns(b, 1) {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink *obs.Sink
			races := 0
			for i := 0; i < b.N; i++ {
				sink = obs.New()
				c := New(r.art, r.v.Log, Config{Failure: r.v.Failure, Deadlock: r.v.Deadlock, Obs: sink})
				races = len(c.Races())
				c.RaceReport()
			}
			b.ReportMetric(float64(races), "races/op")
			b.ReportMetric(float64(sink.Snapshot().Counter("race.pairs")), "pairs/op")
			b.ReportMetric(float64(logRecords(r.v.Log)), "records/op")
		})
	}
}

func logRecords(pl *logging.ProgramLog) int {
	n := 0
	for _, b := range pl.Books {
		n += len(b.Records)
	}
	return n
}

// TestRaceAllocsCeiling gates the allocations of a triage op's debugging
// half (triageOp) on racy-ticker 4×60 and sharded 4×40 at seed 1. Before
// the one-pass build the racy-ticker op made about 17.7k allocations:
// 4,708 in parallel.Build and 12,972 in race.Detect. With a per-controller
// worker pool constructing the emulators it made 226 and 147, and 215 and
// 136 while each emulator still built a private replay pool the controller
// then replaced.
func TestRaceAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ceiling := map[string]float64{"racy-ticker": 210, "sharded-4x40": 131}
	for _, r := range triageRuns(t, 1) {
		c, ok := ceiling[r.name]
		if !ok {
			continue
		}
		checkCeiling(t, r.name+" triage op", testing.AllocsPerRun(3, func() { triageOp(r) }), c)
	}
}

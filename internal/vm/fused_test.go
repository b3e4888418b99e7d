package vm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/mplgen"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// fusedRun is one observed execution: everything the debugging phase (or a
// user) can see from a ModeLog run. The fused-vs-unfused tests compare two
// of these field by field — if all fields match, fusion was invisible.
type fusedRun struct {
	log      []byte
	output   string
	globals  string
	failure  string
	deadlock bool
}

// runLogged compiles src with the given fusion table (nil = fusion
// disabled) and runs it under ModeLog, capturing every observable.
func runLogged(t testing.TB, name, src string, cfg eblock.Config, tab *bytecode.FusionTable, seed int64, quantum int, maxSteps int64) *fusedRun {
	t.Helper()
	art, err := compile.Compile(source.NewFile(name, src), compile.Opts{Config: cfg, Fusion: tab, NoFusion: tab == nil})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	var out bytes.Buffer
	v := New(art.Prog, Options{Mode: ModeLog, Seed: seed, Quantum: quantum, MaxSteps: maxSteps, Output: &out})
	runErr := v.Run()
	r := &fusedRun{output: out.String(), deadlock: v.Deadlock}
	if runErr != nil {
		r.failure = runErr.Error()
	}
	r.globals = fmt.Sprintf("%v", v.Snapshot())
	var buf bytes.Buffer
	if err := v.Log.Write(&buf); err != nil {
		t.Fatalf("write log %s: %v", name, err)
	}
	r.log = buf.Bytes()
	return r
}

func diffRuns(t testing.TB, name string, fused, plain *fusedRun) {
	t.Helper()
	if !bytes.Equal(fused.log, plain.log) {
		t.Errorf("%s: fused log differs from unfused (fused %d bytes, unfused %d, first diff at %d)",
			name, len(fused.log), len(plain.log), firstDiff(fused.log, plain.log))
	}
	if fused.output != plain.output {
		t.Errorf("%s: program output differs\nfused:   %q\nunfused: %q", name, fused.output, plain.output)
	}
	if fused.globals != plain.globals {
		t.Errorf("%s: final globals differ\nfused:   %s\nunfused: %s", name, fused.globals, plain.globals)
	}
	if fused.failure != plain.failure {
		t.Errorf("%s: failure differs\nfused:   %q\nunfused: %q", name, fused.failure, plain.failure)
	}
	if fused.deadlock != plain.deadlock {
		t.Errorf("%s: deadlock fused=%v unfused=%v", name, fused.deadlock, plain.deadlock)
	}
}

// TestLogGoldenFusedVsUnfused is the tentpole's gate: across the whole
// golden matrix, a fused run and an unfused run of the same program must
// be indistinguishable — byte-identical logs, identical output, identical
// final globals — and both must match the pinned golden file. Fusion is a
// dispatch-cost optimization only; it must never change what the
// execution phase records.
func TestLogGoldenFusedVsUnfused(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			fused := runLogged(t, tc.wl.Name, tc.wl.Src, tc.cfg, bytecode.DefaultFusionTable(), tc.seed, tc.quantum, 0)
			plain := runLogged(t, tc.wl.Name, tc.wl.Src, tc.cfg, nil, tc.seed, tc.quantum, 0)
			diffRuns(t, tc.name, fused, plain)
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".ppdlog"))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if !bytes.Equal(fused.log, want) {
				t.Errorf("%s: fused log differs from pinned golden (first diff at %d)",
					tc.name, firstDiff(fused.log, want))
			}
		})
	}
}

// raceReport renders the detector output for one logged run so two runs
// can be compared as strings.
func raceReport(t testing.TB, name, src string, cfg eblock.Config, tab *bytecode.FusionTable, seed int64, quantum int) (naive, detected string) {
	t.Helper()
	art, err := compile.Compile(source.NewFile(name, src), compile.Opts{Config: cfg, Fusion: tab, NoFusion: tab == nil})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	vmr := New(art.Prog, Options{Mode: ModeLog, Seed: seed, Quantum: quantum})
	if err := vmr.Run(); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	g := parallel.Build(vmr.Log, len(art.Prog.Globals))
	var a, b bytes.Buffer
	for _, r := range race.Naive(g) {
		fmt.Fprintln(&a, r)
	}
	for _, r := range race.Detect(g, race.Opts{}) {
		fmt.Fprintln(&b, r)
	}
	return a.String(), b.String()
}

// TestRacesFusedVsUnfused pins the debugging phase's view: the race
// reports produced from a fused run's log equal those from an unfused
// run's log, for both detectors, on a racy and a sync-heavy workload.
func TestRacesFusedVsUnfused(t *testing.T) {
	cases := []*workloads.Workload{
		workloads.RacyCounter(3, 50, false),
		workloads.Sharded(4, 40),
	}
	for _, wl := range cases {
		t.Run(wl.Name, func(t *testing.T) {
			fn, fi := raceReport(t, wl.Name, wl.Src, eblock.DefaultConfig(), bytecode.DefaultFusionTable(), 3, 7)
			pn, pi := raceReport(t, wl.Name, wl.Src, eblock.DefaultConfig(), nil, 3, 7)
			if fn != pn {
				t.Errorf("naive race report differs\nfused:\n%s\nunfused:\n%s", fn, pn)
			}
			if fi != pi {
				t.Errorf("Detect race report differs\nfused:\n%s\nunfused:\n%s", fi, pi)
			}
		})
	}
}

// TestVetFusedVsUnfused checks that the static-analysis report is
// unaffected by fusion (vet runs on the front-end layers, but the gate is
// part of the contract, so pin it end to end through the public API).
func TestVetFusedVsUnfused(t *testing.T) {
	wl := workloads.RacyCounter(3, 50, false)
	fused, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig(), NoFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fused.Vet(nil).Text(), plain.Vet(nil).Text(); got != want {
		t.Errorf("vet report differs\nfused:\n%s\nunfused:\n%s", got, want)
	}
}

// TestFusionCoverage guards against the fusion pass silently matching
// nothing: every standard workload must contain superinstructions when
// compiled with the default table.
func TestFusionCoverage(t *testing.T) {
	for _, wl := range workloads.Standard() {
		art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if n := art.Prog.NumSuper(); n == 0 {
			t.Errorf("%s: fusion matched nothing", wl.Name)
		}
	}
}

// FuzzFusedEquivalence is the differential fuzz target: any MPL program
// the generator or the fuzzer mutates to must behave byte-identically
// fused and unfused. The seed corpus is the standard workloads plus the
// racy 15-program matrix and the difftest generator configs, so the
// fuzzer starts from every sync/branch shape the project exercises.
func FuzzFusedEquivalence(f *testing.F) {
	for _, wl := range workloads.Standard() {
		f.Add(wl.Src, int64(0), 7)
	}
	for seed := int64(0); seed < 15; seed++ {
		f.Add(mplgen.Generate(seed, mplgen.RacyConfig()), seed, 5)
	}
	for seed := int64(0); seed < 5; seed++ {
		f.Add(mplgen.Generate(seed, mplgen.DefaultConfig()), seed, 11)
		f.Add(mplgen.Generate(seed, mplgen.ParallelConfig()), seed, 3)
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, quantum int) {
		if quantum < 1 || quantum > 1000 {
			return
		}
		if _, err := compile.Compile(source.NewFile("fuzz.mpl", src), compile.Opts{Config: eblock.DefaultConfig(), NoFusion: true}); err != nil {
			return // not a valid program; nothing to compare
		}
		const maxSteps = 2_000_000 // bound runaway loops; both runs share it
		fused := runLogged(t, "fuzz.mpl", src, eblock.DefaultConfig(), bytecode.DefaultFusionTable(), seed, quantum, maxSteps)
		plain := runLogged(t, "fuzz.mpl", src, eblock.DefaultConfig(), nil, seed, quantum, maxSteps)
		diffRuns(t, "fuzz", fused, plain)
	})
}

package vm_test

import (
	"os"
	"path/filepath"
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// profileFusionHits compiles every standard workload with every candidate
// shape enabled and runs it under ModeRun at seeds 0 and 3 with the
// dispatch profiler attached, returning the summed per-shape hit counts.
// Compiling with AllPatterns makes the result independent of the
// checked-in table, so regeneration is a one-step fixed point; the VM is
// deterministic, so the counts are too.
func profileFusionHits(t *testing.T) []int64 {
	t.Helper()
	hits := make([]int64, bytecode.NumSuperOps)
	for _, w := range workloads.Standard() {
		art, err := compile.Compile(source.NewFile(w.Name, w.Src), compile.Opts{Config: eblock.DefaultConfig(), Fusion: bytecode.AllPatterns()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, seed := range []int64{0, 3} {
			st := obs.NewOpStats(int(bytecode.NumOps), int(bytecode.NumSuperOps))
			v := vm.New(art.Prog, vm.Options{Mode: vm.ModeRun, Seed: seed, OpProfile: st})
			if err := v.Run(); err != nil {
				t.Fatalf("%s seed %d: %v", w.Name, seed, err)
			}
			for op, n := range st.Super {
				hits[op] += n
			}
		}
	}
	return hits
}

// TestFusionTableFresh pins the checked-in profile-guided fusion table to
// what profiling the standard workloads produces today, mirroring the
// golden-log workflow: CI fails on any diff so the table can never
// silently go stale. Refresh the table deliberately, from the repo root,
// with
//
//	PPD_UPDATE_FUSION=1 go test ./internal/vm -run TestFusionTableFresh
//
// which rewrites internal/bytecode/fusiontable_gen.go. It lives in
// internal/vm (not bytecode) because profiling needs the compiler and the
// VM.
func TestFusionTableFresh(t *testing.T) {
	want := bytecode.FormatFusionTableSource(profileFusionHits(t))
	path := filepath.Join("..", "bytecode", "fusiontable_gen.go")
	if os.Getenv("PPD_UPDATE_FUSION") != "" {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("fusiontable_gen.go is stale; regenerate with PPD_UPDATE_FUSION=1 go test ./internal/vm -run TestFusionTableFresh")
	}
}

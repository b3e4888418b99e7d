package vm_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// TestRunAllocsCeiling gates the execution phase's allocations per run on
// the BenchmarkDispatch workloads (fused, as compiled by default). Unlike
// ns/op, allocs/op is deterministic, so the ceilings are exact: a change
// that allocates more per run fails here instead of hiding in benchmark
// noise. ModeRun's ceilings are ModeLog's table-handler state (the shared
// bits and array dirty bits) over its uninstrumented floor; the
// per-process internal-edge sets exist under ModeLog only.
func TestRunAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// A collection during a run can add an allocation (a sync.Pool refill
	// after GC clears it), so the count depends on GC timing unless GC is
	// off; one P keeps the runtime's per-P caches out of it too.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cases := []struct {
		wl       *workloads.Workload
		run, log float64
	}{
		{workloads.Matmul(16), 32, 58},
		{workloads.ProdCons(600), 440, 1100},
		{workloads.TokenRing(4, 100), 279, 1580},
		{workloads.Divide(11), 93, 201},
	}
	for _, c := range cases {
		art, err := compile.Compile(source.NewFile(c.wl.Name, c.wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			t.Fatalf("%s: %v", c.wl.Name, err)
		}
		for _, m := range []struct {
			mode    vm.Mode
			ceiling float64
		}{{vm.ModeRun, c.run}, {vm.ModeLog, c.log}} {
			got := testing.AllocsPerRun(3, func() {
				if err := vm.New(art.Prog, vm.Options{Mode: m.mode, Quantum: 1000}).Run(); err != nil {
					t.Fatalf("%s %v: %v", c.wl.Name, m.mode, err)
				}
			})
			if got > m.ceiling {
				t.Errorf("%s %v: %v allocs/run, ceiling %v", c.wl.Name, m.mode, got, m.ceiling)
			} else {
				t.Logf("%s %v: %v allocs/run (ceiling %v)", c.wl.Name, m.mode, got, m.ceiling)
			}
		}
	}
}

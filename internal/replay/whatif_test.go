package replay_test

import (
	"testing"

	"ppd/internal/compile"
	"ppd/internal/controller"
	"ppd/internal/replay"
	"ppd/internal/source"
	"ppd/internal/vm"
)

// whatIfSetup compiles src, runs it logged, and returns its artifacts, a
// controller over the run, and the record index of fn's first interval.
// The what-if entry point is Controller.WhatIf, so these tests of the
// Override and WhatIfResult contract live in an external test package.
func whatIfSetup(t *testing.T, src, fn string) (*compile.Artifacts, *controller.Controller, int) {
	t.Helper()
	art, err := compile.Compile(source.NewFile("test.mpl", src), compile.Opts{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog})
	_ = v.Run()
	c := controller.New(art, v.Log, controller.Config{Failure: v.Failure, Deadlock: v.Deadlock})
	return art, c, c.Emulator(0).PrelogIndices(int(art.Plan.ByFunc[fn].ID))[0]
}

func TestWhatIfChangesOutcome(t *testing.T) {
	src := `
var g;
func f(a int) int {
	if (a > 10) { g = 1; } else { g = 2; }
	return g * a;
}
func main() { print(f(20)); }`
	art, c, idx := whatIfSetup(t, src, "f")

	// Original: a=20 > 10, g=1. Override a to 3: g=2.
	res, err := c.WhatIf(0, idx, []replay.Override{{Slot: 0, Global: -1, Value: 3}})
	if err != nil {
		t.Fatal(err)
	}
	gid := art.Info.GlobalByName("g").GlobalID
	if res.Original.Globals[gid].Int != 1 {
		t.Errorf("original g = %d, want 1", res.Original.Globals[gid].Int)
	}
	if res.Modified.Globals[gid].Int != 2 {
		t.Errorf("modified g = %d, want 2", res.Modified.Globals[gid].Int)
	}
	if len(res.ChangedGlobals) != 1 || res.ChangedGlobals[0] != gid {
		t.Errorf("changed globals = %v, want [%d]", res.ChangedGlobals, gid)
	}
	// The log itself must be untouched.
	res2, err := c.WhatIf(0, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.ChangedGlobals) != 0 {
		t.Error("no-override what-if must change nothing (log mutated?)")
	}
}

func TestWhatIfGlobalOverride(t *testing.T) {
	src := `
var g = 10;
func f() int { return g * 3; }
func main() { print(f()); }`
	art, c, idx := whatIfSetup(t, src, "f")
	gid := art.Info.GlobalByName("g").GlobalID

	res, err := c.WhatIf(0, idx, []replay.Override{{Slot: -1, Global: gid, Value: 7}})
	if err != nil {
		t.Fatal(err)
	}
	// f only reads g, so the override is the interval's end value of g:
	// the replay started from it, and only g differs.
	if res.Original.Globals[gid].Int != 10 || res.Modified.Globals[gid].Int != 7 {
		t.Errorf("g: original %d, modified %d; want 10, 7",
			res.Original.Globals[gid].Int, res.Modified.Globals[gid].Int)
	}
	if len(res.ChangedGlobals) != 1 || res.ChangedGlobals[0] != gid {
		t.Errorf("changed globals = %v, want [%d]", res.ChangedGlobals, gid)
	}
	if res.Original.Err != nil || res.Modified.Err != nil || !res.Modified.Completed {
		t.Errorf("both replays should complete cleanly: %v / %v", res.Original.Err, res.Modified.Err)
	}
}

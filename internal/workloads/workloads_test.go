package workloads

import (
	"bytes"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/source"
	"ppd/internal/vm"
)

// TestWorkloadsCorrectAcrossModes runs every standard workload in every
// execution mode and seed combination and checks the program output — the
// instrumentation must never change program behaviour.
func TestWorkloadsCorrectAcrossModes(t *testing.T) {
	for _, w := range Standard() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			art, err := compile.Compile(source.NewFile(w.Name+".mpl", w.Src), compile.Opts{Config: eblock.DefaultConfig()})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			bare, err := compile.CompileBare(source.NewFile(w.Name+".mpl", w.Src))
			if err != nil {
				t.Fatalf("compile bare: %v", err)
			}
			for _, mode := range []vm.Mode{vm.ModeRun, vm.ModeLog, vm.ModeFullTrace} {
				for _, seed := range []int64{0, 3} {
					var out bytes.Buffer
					v := vm.New(art.Prog, vm.Options{Mode: mode, Seed: seed, Quantum: 5, Output: &out})
					if err := v.Run(); err != nil {
						t.Fatalf("mode %v seed %d: %v", mode, seed, err)
					}
					if out.String() != w.Output {
						t.Errorf("mode %v seed %d: output %q, want %q", mode, seed, out.String(), w.Output)
					}
				}
			}
			var out bytes.Buffer
			v := vm.New(bare.Prog, vm.Options{Output: &out})
			if err := v.Run(); err != nil {
				t.Fatalf("bare: %v", err)
			}
			if out.String() != w.Output {
				t.Errorf("bare: output %q, want %q", out.String(), w.Output)
			}
		})
	}
}

func TestRacyCounterVariants(t *testing.T) {
	for _, protect := range []bool{false, true} {
		w := RacyCounter(3, 10, protect)
		art, err := compile.Compile(source.NewFile(w.Name+".mpl", w.Src), compile.Opts{})
		if err != nil {
			t.Fatalf("protect=%t: %v", protect, err)
		}
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1})
		if err := v.Run(); err != nil {
			t.Fatalf("protect=%t: %v", protect, err)
		}
	}
}

package controller

import (
	"fmt"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// BenchmarkReplayTo is E22's restore half: ReplayTo at 24 record
// boundaries spread over the longest book of a prodcons run, across
// checkpoint spacings K ("off" disables checkpoints). One warming restore
// to the end of the book builds the checkpoints first, so a restore folds
// at most K records past its seed, against the whole prefix without them.
// ns/op is per restore; ckpts reports the checkpoints stored.
func BenchmarkReplayTo(b *testing.B) {
	wl := workloads.ProdCons(600)
	art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		b.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 5})
	if err := v.Run(); err != nil {
		b.Fatal(err)
	}
	pid, n := 0, 0
	for p, book := range v.Log.Books {
		if len(book.Records) > n {
			pid, n = p, len(book.Records)
		}
	}
	const probes = 24
	for _, k := range []int{-1, 8, 32, 64, 128, 256} {
		name := fmt.Sprintf("K=%d", k)
		if k < 0 {
			name = "K=off"
		}
		b.Run(name, func(b *testing.B) {
			sink := obs.New()
			c := New(art, v.Log, Config{
				Failure: v.Failure, Deadlock: v.Deadlock,
				CheckpointEvery: k, Obs: sink,
			})
			if _, err := c.ReplayTo(pid, n); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ReplayTo(pid, (i%probes+1)*n/probes); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(sink.Counter("debug.emu.ckpt.stores").Value()), "ckpts")
		})
	}
}

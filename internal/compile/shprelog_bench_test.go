package compile

import (
	"testing"

	"ppd/internal/eblock"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// BenchmarkSharedPrelogFilter is E12, the ablation of the shared-prelog
// cross-write filter: each workload's logged run compiled with the filter
// (Compile) and without it (compileUnfiltered, the literal §5.5 that logs
// every shared read at every sync unit). log-B reports the bytes one run
// logs.
func BenchmarkSharedPrelogFilter(b *testing.B) {
	for _, wl := range []*workloads.Workload{
		workloads.Matmul(16),
		workloads.TokenRing(4, 100),
		workloads.ProdCons(600),
	} {
		for _, variant := range []struct {
			name    string
			compile func(*source.File, eblock.Config) (*Artifacts, error)
		}{{"filtered", func(f *source.File, cfg eblock.Config) (*Artifacts, error) {
			return Compile(f, Opts{Config: cfg})
		}}, {"literal", compileUnfiltered}} {
			b.Run(wl.Name+"/"+variant.name, func(b *testing.B) {
				art, err := variant.compile(source.NewFile(wl.Name, wl.Src), eblock.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				logBytes := 0
				for i := 0; i < b.N; i++ {
					v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 1000})
					if err := v.Run(); err != nil {
						b.Fatal(err)
					}
					logBytes = v.Log.SizeBytes()
				}
				b.ReportMetric(float64(logBytes), "log-B")
			})
		}
	}
}

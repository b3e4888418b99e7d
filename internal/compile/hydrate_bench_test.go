package compile

import (
	"testing"

	"ppd/internal/eblock"
	"ppd/internal/source"
	"ppd/internal/workloads"
)

// BenchmarkHydrate times the rebuild a warm cache hit pays on its first
// debugging-phase query: each iteration hydrates a fresh shallow artifact
// over one cache-loaded program (the bytecode and persisted vet are shared,
// as Hydrate never writes them). The programs are sync-heavy triage
// families at their triage sizes.
func BenchmarkHydrate(b *testing.B) {
	cfg := eblock.DefaultConfig()
	for _, wl := range []*workloads.Workload{
		workloads.RacyTicker(4, 60),
		workloads.TokenRing(4, 40),
		workloads.ProdCons(150),
		workloads.Sharded(4, 40),
	} {
		b.Run(wl.Name, func(b *testing.B) {
			dir := b.TempDir()
			file := source.NewFile(wl.Name+".mpl", wl.Src)
			if _, err := Compile(file, Opts{Config: cfg, CacheDir: dir}); err != nil {
				b.Fatal(err)
			}
			warm, err := Compile(file, Opts{Config: cfg, CacheDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			if warm.Hydrated() {
				b.Fatal("warm load is not a cache hit")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := &Artifacts{File: file, Prog: warm.Prog, cfg: cfg, preVet: warm.preVet}
				if err := a.Hydrate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

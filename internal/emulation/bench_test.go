package emulation

import (
	"ppd/internal/source"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// BenchmarkEmulateInto is E22's emulation half: up to 200 prelog intervals
// of each standard workload's fused, logged run, emulated round-robin by
// the fresh-VM generic oracle ("generic": a new VM per call, every prelog
// value cloned) and by pooled fast dispatch ("pooled": EmulateInto over a
// shared context pool, recycling the caller's result). The two are
// byte-identical (TestEmuDispatchByteIdentical), so the difference is
// dispatch and allocation; ns/op and allocs/op are per interval.
func BenchmarkEmulateInto(b *testing.B) {
	type job struct{ pid, idx int }
	for _, wl := range workloads.Standard() {
		art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			b.Fatal(err)
		}
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 5})
		if err := v.Run(); err != nil {
			b.Fatal(err)
		}
		var jobs []job
		for pid, book := range v.Log.Books {
			for i, r := range book.Records {
				if r.Kind == logging.RecPrelog && len(jobs) < 200 {
					jobs = append(jobs, job{pid, i})
				}
			}
		}
		if len(jobs) == 0 {
			b.Fatalf("%s: no prelog intervals", wl.Name)
		}
		emulators := func(pool *Pool) []*Emulator {
			ems := make([]*Emulator, len(v.Log.Books))
			for pid, book := range v.Log.Books {
				if pool != nil {
					ems[pid] = NewWithPool(art.Prog, book, pool)
				} else {
					ems[pid] = New(art.Prog, book)
					ems[pid].Generic = true
				}
			}
			return ems
		}
		b.Run(wl.Name+"/generic", func(b *testing.B) {
			ems := emulators(nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := jobs[i%len(jobs)]
				if _, err := ems[j.pid].Emulate(j.idx); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(wl.Name+"/pooled", func(b *testing.B) {
			ems := emulators(NewPool(art.Prog, 2, nil))
			var res Result
			for _, j := range jobs { // warm the pool
				if err := ems[j.pid].EmulateInto(j.idx, &res); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := jobs[i%len(jobs)]
				if err := ems[j.pid].EmulateInto(j.idx, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

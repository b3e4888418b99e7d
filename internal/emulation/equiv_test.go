package emulation

import (
	"fmt"
	"sync"
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/mplgen"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// equivCases mirrors the vm package's golden matrix: every standard
// workload plus the sync-heavy sharded shape, across seeds and quanta that
// change the interleaving. The emulation fast path must be byte-identical
// to the generic oracle on every interval of every one of these logs.
func equivCases() []struct {
	name    string
	wl      *workloads.Workload
	cfg     eblock.Config
	seed    int64
	quantum int
} {
	return []struct {
		name    string
		wl      *workloads.Workload
		cfg     eblock.Config
		seed    int64
		quantum int
	}{
		{"matmul_s0_q5", workloads.Matmul(16), eblock.DefaultConfig(), 0, 5},
		{"matmul_s3_q40", workloads.Matmul(16), eblock.DefaultConfig(), 3, 40},
		{"prodcons_s0_q5", workloads.ProdCons(600), eblock.DefaultConfig(), 0, 5},
		{"prodcons_s3_q40", workloads.ProdCons(600), eblock.DefaultConfig(), 3, 40},
		{"tokenring_s0_q5", workloads.TokenRing(4, 100), eblock.DefaultConfig(), 0, 5},
		{"tokenring_s3_q40", workloads.TokenRing(4, 100), eblock.DefaultConfig(), 3, 40},
		{"divide_s0_q5", workloads.Divide(11), eblock.DefaultConfig(), 0, 5},
		{"divide_s3_q40", workloads.Divide(11), eblock.DefaultConfig(), 3, 40},
		{"sharded_s0_q3", workloads.Sharded(4, 40), eblock.Config{}, 0, 3},
	}
}

// prelogIdxs returns up to limit prelog record indices of the book, evenly
// strided (keeping the first and last) so long books stay cheap to sweep.
func prelogIdxs(book *logging.Book, limit int) []int {
	var all []int
	for i, r := range book.Records {
		if r.Kind == logging.RecPrelog {
			all = append(all, i)
		}
	}
	if len(all) <= limit {
		return all
	}
	out := make([]int, 0, limit)
	for k := 0; k < limit; k++ {
		out = append(out, all[k*(len(all)-1)/(limit-1)])
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffResults fails the test unless fast and oracle agree on every
// observable of an emulation: the full trace, the end-of-interval globals,
// the reproduced failure, the records consumed, and completion.
func diffResults(t *testing.T, ctx string, fast, oracle *Result) {
	t.Helper()
	if got, want := fast.Trace.String(), oracle.Trace.String(); got != want {
		t.Errorf("%s: trace diverges\nfast:\n%s\noracle:\n%s", ctx, got, want)
	}
	if got, want := fmt.Sprintf("%v", fast.Globals), fmt.Sprintf("%v", oracle.Globals); got != want {
		t.Errorf("%s: globals diverge\nfast:   %s\noracle: %s", ctx, got, want)
	}
	if got, want := errString(fast.Err), errString(oracle.Err); got != want {
		t.Errorf("%s: error diverges: fast %q, oracle %q", ctx, got, want)
	}
	if fast.RecordsConsumed != oracle.RecordsConsumed {
		t.Errorf("%s: records consumed: fast %d, oracle %d", ctx, fast.RecordsConsumed, oracle.RecordsConsumed)
	}
	if fast.Completed != oracle.Completed {
		t.Errorf("%s: completed: fast %t, oracle %t", ctx, fast.Completed, oracle.Completed)
	}
}

// TestEmuDispatchByteIdentical is the fast path's differential gate: across
// the golden workload × seed × quantum matrix, with and without fused
// superinstructions, every interval's pooled fast-dispatch emulation must
// match the fresh-VM generic oracle on every observable.
func TestEmuDispatchByteIdentical(t *testing.T) {
	for _, tc := range equivCases() {
		for _, fused := range []bool{false, true} {
			name := tc.name + "_unfused"
			var tab *bytecode.FusionTable
			if fused {
				name = tc.name + "_fused"
				tab = bytecode.DefaultFusionTable()
			}
			t.Run(name, func(t *testing.T) {
				art, err := compile.Compile(source.NewFile(tc.wl.Name, tc.wl.Src), compile.Opts{Config: tc.cfg, Fusion: tab, NoFusion: tab == nil})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: tc.seed, Quantum: tc.quantum})
				_ = v.Run()
				for pid, book := range v.Log.Books {
					fast := New(art.Prog, book)
					oracle := New(art.Prog, book)
					oracle.Generic = true
					for _, idx := range prelogIdxs(book, 64) {
						fres, ferr := fast.Emulate(idx)
						ores, oerr := oracle.Emulate(idx)
						if errString(ferr) != errString(oerr) {
							t.Fatalf("pid %d idx %d: call error diverges: fast %v, oracle %v", pid, idx, ferr, oerr)
						}
						if ferr != nil {
							continue
						}
						diffResults(t, fmt.Sprintf("pid %d idx %d", pid, idx), fres, ores)
					}
				}
			})
		}
	}
}

// FuzzEmuEquivalence fuzzes the same property over generated programs: any
// MPL program's logged intervals must emulate identically through the
// pooled fast path and the generic oracle. Seeded like the vm package's
// fusion fuzz so the corpus covers every sync/branch shape.
func FuzzEmuEquivalence(f *testing.F) {
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
		art, err := compile.Compile(source.NewFile("fuzz.mpl", src), compile.Opts{Config: eblock.DefaultConfig()})
		if err != nil {
			return // not a valid program; nothing to compare
		}
		const maxSteps = 2_000_000 // bound runaway loops
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: seed, Quantum: quantum, MaxSteps: maxSteps})
		_ = v.Run()
		for pid, book := range v.Log.Books {
			fast := New(art.Prog, book)
			oracle := New(art.Prog, book)
			oracle.Generic = true
			for _, idx := range prelogIdxs(book, 16) {
				fres, ferr := fast.Emulate(idx)
				ores, oerr := oracle.Emulate(idx)
				if errString(ferr) != errString(oerr) {
					t.Fatalf("pid %d idx %d: call error diverges: fast %v, oracle %v", pid, idx, ferr, oerr)
				}
				if ferr != nil {
					continue
				}
				diffResults(t, fmt.Sprintf("pid %d idx %d", pid, idx), fres, ores)
			}
		}
	})
}

// TestPoolReuseObservable proves the pool actually recycles contexts and
// reports it: the second emulation on the same pool is a pool hit, the
// fast path's dispatches land in debug.emu.dispatch.fast, and repeated
// results stay identical to the first.
func TestPoolReuseObservable(t *testing.T) {
	tc := equivCases()[2] // prodcons: multiple procs and sync records
	art, err := compile.Compile(source.NewFile(tc.wl.Name, tc.wl.Src), compile.Opts{Config: tc.cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: tc.seed, Quantum: tc.quantum})
	_ = v.Run()

	sink := obs.New()
	em := New(art.Prog, v.Log.Books[0])
	em.SetPool(NewPool(art.Prog, 2, sink))
	idx := em.FirstPrelog()
	if idx < 0 {
		t.Fatal("no prelog")
	}
	first, err := em.Emulate(idx)
	if err != nil {
		t.Fatal(err)
	}
	second, err := em.Emulate(idx)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "repeat", second, first)

	if got := sink.Counter("debug.emu.pool.misses").Value(); got != 1 {
		t.Errorf("pool misses = %d, want 1", got)
	}
	if got := sink.Counter("debug.emu.pool.hits").Value(); got != 1 {
		t.Errorf("pool hits = %d, want 1", got)
	}
	if got := sink.Counter("debug.emu.dispatch.fast").Value(); got == 0 {
		t.Error("no fast dispatches recorded")
	}
}

// TestEmulateIntoRecycles drives one recycled Result through every
// interval of a log and checks each against a fresh oracle emulation: the
// scratch reuse (trace buffer, globals) must never leak one interval's
// state into the next.
func TestEmulateIntoRecycles(t *testing.T) {
	tc := equivCases()[0] // matmul: arrays in globals and locals
	art, err := compile.Compile(source.NewFile(tc.wl.Name, tc.wl.Src), compile.Opts{Config: tc.cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: tc.seed, Quantum: tc.quantum})
	_ = v.Run()

	book := v.Log.Books[0]
	em := New(art.Prog, book)
	oracle := New(art.Prog, book)
	oracle.Generic = true
	res := &Result{}
	for _, idx := range prelogIdxs(book, 32) {
		if err := em.EmulateInto(idx, res); err != nil {
			t.Fatalf("idx %d: %v", idx, err)
		}
		want, err := oracle.Emulate(idx)
		if err != nil {
			t.Fatalf("idx %d oracle: %v", idx, err)
		}
		diffResults(t, fmt.Sprintf("idx %d", idx), res, want)
	}
}

// TestEmulateConcurrentWidths fans concurrent emulations over one shared
// bounded pool at several widths (width 0 = serial baseline) and checks
// every result against the oracle. Under `make race` this doubles as the
// pool's race gate.
func TestEmulateConcurrentWidths(t *testing.T) {
	tc := equivCases()[4] // tokenring: 5 processes, sync-heavy
	art, err := compile.Compile(source.NewFile(tc.wl.Name, tc.wl.Src), compile.Opts{Config: tc.cfg})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: tc.seed, Quantum: tc.quantum})
	_ = v.Run()

	type job struct{ pid, idx int }
	var jobs []job
	oracle := make(map[job]*Result)
	for pid, book := range v.Log.Books {
		og := New(art.Prog, book)
		og.Generic = true
		for _, idx := range prelogIdxs(book, 8) {
			j := job{pid, idx}
			want, err := og.Emulate(idx)
			if err != nil {
				t.Fatalf("oracle pid %d idx %d: %v", pid, idx, err)
			}
			jobs = append(jobs, j)
			oracle[j] = want
		}
	}

	for _, width := range []int{0, 2, 4, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			pool := NewPool(art.Prog, 4, nil)
			emus := make([]*Emulator, len(v.Log.Books))
			for pid, book := range v.Log.Books {
				emus[pid] = New(art.Prog, book)
				emus[pid].SetPool(pool)
			}
			run := func(j job) {
				got, err := emus[j.pid].Emulate(j.idx)
				if err != nil {
					t.Errorf("pid %d idx %d: %v", j.pid, j.idx, err)
					return
				}
				diffResults(t, fmt.Sprintf("w%d pid %d idx %d", width, j.pid, j.idx), got, oracle[j])
			}
			if width == 0 {
				for _, j := range jobs {
					run(j)
				}
				return
			}
			ch := make(chan job)
			var wg sync.WaitGroup
			for w := 0; w < width; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := range ch {
						run(j)
					}
				}()
			}
			for _, j := range jobs {
				ch <- j
			}
			close(ch)
			wg.Wait()
		})
	}
}

package emulation

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/mplgen"
	"ppd/internal/obs"
	"ppd/internal/source"
	"ppd/internal/trace"
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
		// histo is the workload whose windows fuse only under absint
		// certificates: the shapes untraced emulation runs fused.
		{"histo_q5", workloads.Histo(60), eblock.DefaultConfig(), 0, 5},
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
// the reproduced failure, the steps executed, the records consumed, and
// completion. Traces are compared event by event and rendered only when
// they differ.
func diffResults(t *testing.T, ctx string, fast, oracle *Result) {
	t.Helper()
	if !slices.EqualFunc(fast.Trace.Events, oracle.Trace.Events, sameEvent) {
		t.Errorf("%s: trace diverges\nfast:\n%s\noracle:\n%s", ctx, fast.Trace, oracle.Trace)
	}
	if fast.Steps != oracle.Steps {
		t.Errorf("%s: steps: fast %d, oracle %d", ctx, fast.Steps, oracle.Steps)
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

// sameEvent reports whether two trace events are equal in every field.
func sameEvent(a, b trace.Event) bool {
	return a.Kind == b.Kind && a.Stmt == b.Stmt && a.Var == b.Var && a.Idx == b.Idx &&
		a.Value == b.Value && a.HasValue == b.HasValue && a.FuncIdx == b.FuncIdx &&
		slices.Equal(a.Args, b.Args) && a.Op == b.Op && a.Obj == b.Obj
}

// diffOutcomes fails the test unless an untraced what-if replay and its
// oracle agree on everything a what-if reports: the end-of-interval
// globals, completion, the failure and the steps executed.
func diffOutcomes(t *testing.T, ctx string, fast, oracle *Result) {
	t.Helper()
	if got, want := fmt.Sprintf("%v", fast.Globals), fmt.Sprintf("%v", oracle.Globals); got != want {
		t.Errorf("%s: untraced globals diverge\nfast:   %s\noracle: %s", ctx, got, want)
	}
	if fast.Completed != oracle.Completed {
		t.Errorf("%s: untraced completed: fast %t, oracle %t", ctx, fast.Completed, oracle.Completed)
	}
	if got, want := errString(fast.Err), errString(oracle.Err); got != want {
		t.Errorf("%s: untraced error diverges: fast %q, oracle %q", ctx, got, want)
	}
	if fast.Steps != oracle.Steps {
		t.Errorf("%s: untraced steps: fast %d, oracle %d", ctx, fast.Steps, oracle.Steps)
	}
}

// replayers holds one book's emulators for the differential checks, each
// replay stopping at maxSteps (0 for the VM's default budget): fast
// (traced Emulate on a recycled pool), fresh (untraced what-if
// EmulateFresh on a one-context pool), and oracle, the oracle of both:
// the Generic emulator under the default budget, else a one-context pool
// whose VM runs the generic loop under the same budget.
type replayers struct {
	fast, fresh, oracle *Emulator
	pool                *Pool // fresh's pool
}

func newReplayers(prog *bytecode.Program, book *logging.Book, maxSteps int64) *replayers {
	r := &replayers{}
	r.fresh, r.pool = onePool(prog, book, vm.Options{Mode: vm.ModeEmulate, MaxSteps: maxSteps})
	if maxSteps == 0 {
		r.fast, r.oracle = New(prog, book), New(prog, book)
		r.oracle.Generic = true
	} else {
		r.fast, _ = onePool(prog, book, vm.Options{Mode: vm.ModeEmulate, MaxSteps: maxSteps})
		r.oracle, _ = onePool(prog, book, vm.Options{Mode: vm.ModeEmulate, EmuGeneric: true, MaxSteps: maxSteps})
	}
	return r
}

// onePool returns an emulator whose pool holds one context, on a VM built
// with opts.
func onePool(prog *bytecode.Program, book *logging.Book, opts vm.Options) (*Emulator, *Pool) {
	pool := NewPool(prog, 1, nil)
	pool.put(&Context{machine: vm.New(prog, opts)})
	return NewWithPool(prog, book, pool), pool
}

// freshPair replays the interval at idx as an unmodified what-if both
// ways under one instruction budget: pooled and untraced through
// EmulateFresh, and through its oracle.
func (r *replayers) freshPair(t *testing.T, idx int) (fast, oracle *Result) {
	t.Helper()
	fast, err := r.fresh.EmulateFresh(idx, nil)
	if err != nil {
		t.Fatalf("idx %d: EmulateFresh: %v", idx, err)
	}
	if oracle, err = r.oracle.EmulateFresh(idx, nil); err != nil {
		t.Fatalf("idx %d: oracle EmulateFresh: %v", idx, err)
	}
	return fast, oracle
}

// check compares the interval at idx both ways the debugger replays one:
// the traced Emulate and the untraced what-if EmulateFresh, each pooled
// against the Generic oracle.
func (r *replayers) check(t *testing.T, pid, idx int) {
	t.Helper()
	ctx := fmt.Sprintf("pid %d idx %d", pid, idx)
	fres, ferr := r.fast.Emulate(idx)
	ores, oerr := r.oracle.Emulate(idx)
	if errString(ferr) != errString(oerr) {
		t.Fatalf("%s: call error diverges: fast %v, oracle %v", ctx, ferr, oerr)
	}
	if ferr == nil {
		diffResults(t, ctx, fres, ores)
	}
	fast, oracle := r.freshPair(t, idx)
	diffOutcomes(t, ctx, fast, oracle)
}

// checkBudgetCuts sweeps instruction budgets over the book's longest
// sampled what-if replay: every cut must end both ways with ErrBudget at
// the same step, and at least one must land strictly inside a fused
// window, where the fast path has to fall back to single-op dispatch.
func checkBudgetCuts(t *testing.T, prog *bytecode.Program, book *logging.Book) {
	t.Helper()
	idx, total := -1, int64(0)
	whole := newReplayers(prog, book, 0)
	for _, i := range prelogIdxs(book, 64) {
		if res, _ := whole.freshPair(t, i); res.Steps > total {
			idx, total = i, res.Steps
		}
	}
	inWindow := 0
	for cut := int64(1); cut < total && cut <= 400; cut++ {
		r := newReplayers(prog, book, cut)
		fast, oracle := r.freshPair(t, idx)
		ctx := fmt.Sprintf("idx %d cut %d", idx, cut)
		if !errors.Is(fast.Err, vm.ErrBudget) || fast.Steps != cut+1 {
			t.Fatalf("%s: fast replay ended with %v at step %d, want ErrBudget at %d", ctx, fast.Err, fast.Steps, cut+1)
		}
		diffOutcomes(t, ctx, fast, oracle)
		p := r.pool.get().machine.Procs[0] // the replay's final state
		f := p.Frames[len(p.Frames)-1]
		for s := max(f.PC-3, 0); s < f.PC && s < len(f.Fn.Super); s++ {
			if w := f.Fn.Super[s]; w.Op != bytecode.SuperNone && s+int(w.W) > f.PC {
				inWindow++
				break
			}
		}
	}
	if inWindow == 0 {
		t.Errorf("idx %d: no budget cut in 1..%d landed inside a fused window", idx, min(total-1, 400))
	}
	t.Logf("idx %d: %d of the budget cuts in 1..%d landed inside a fused window", idx, inWindow, min(total-1, 400))
}

// TestEmuDispatchByteIdentical is the fast path's differential gate: across
// the golden workload × seed × quantum matrix, with and without fused
// superinstructions, every interval's pooled fast-dispatch emulation, traced
// and untraced, must match the fresh-VM generic oracle on every observable.
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
					r := newReplayers(art.Prog, book, 0)
					for _, idx := range prelogIdxs(book, 64) {
						r.check(t, pid, idx)
					}
				}
				if fused && tc.name == "divide_s0_q5" {
					checkBudgetCuts(t, art.Prog, v.Log.Books[0])
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
			// Each replay, both ways, stops at replayBudget: a what-if
			// replay ignores shared prelogs, so it may spin where the
			// logged run did not, and a long interval replayed whole
			// costs the fuzzer thousands of inputs. A cut replay must
			// end with ErrBudget at the same step on both sides.
			r := newReplayers(art.Prog, book, replayBudget)
			for _, idx := range prelogIdxs(book, 16) {
				r.check(t, pid, idx)
			}
		}
	})
}

// replayBudget bounds each of FuzzEmuEquivalence's replays, in
// instructions. It is above the longest replay of any interval of the
// generator's seed programs (about 15k), so it cuts only long intervals,
// such as the standard workloads' whole-process ones.
const replayBudget = 20_000

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
	em := NewWithPool(art.Prog, v.Log.Books[0], NewPool(art.Prog, 2, sink))
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
				emus[pid] = NewWithPool(art.Prog, book, pool)
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

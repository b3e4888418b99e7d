package controller

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/replay"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// whatIfProgram is one program the what-if tests replay.
type whatIfProgram struct{ name, src string }

// whatIfPrograms is the standard workload set plus testdata/crash.mpl,
// whose divisor global turns an override of 0 into a trap.
func whatIfPrograms(t testing.TB) []whatIfProgram {
	t.Helper()
	var out []whatIfProgram
	for _, wl := range workloads.Standard() {
		out = append(out, whatIfProgram{wl.Name, wl.Src})
	}
	crash, err := os.ReadFile("../../testdata/crash.mpl")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, whatIfProgram{"crash", string(crash)})
}

// loggedController compiles and runs a program logged and returns the
// run's VM and a controller over it.
func loggedController(t testing.TB, p whatIfProgram, cfg Config) (*compile.Artifacts, *vm.VM, *Controller) {
	t.Helper()
	art, err := compile.Compile(source.NewFile(p.name, p.src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatalf("%s: compile: %v", p.name, err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 5})
	_ = v.Run()
	return art, v, fromRun(art, v, cfg)
}

// whatIfCases lists the override sets tried at one interval: every scalar
// binding of its prelog — frame slots, then globals — set to its logged
// value, 0, 1 and −1. The logged value restates the start state; the
// others change control flow where the binding is a loop bound or a
// branch operand, and 0 traps where it is a divisor.
func whatIfCases(rec *logging.Record) [][]replay.Override {
	var out [][]replay.Override
	add := func(o replay.Override, logged int64) {
		for _, v := range []int64{logged, 0, 1, -1} {
			o.Value = v
			out = append(out, []replay.Override{o})
		}
	}
	for slot, val := range rec.Locals.All() {
		if !val.IsArray() {
			add(replay.Override{Slot: slot, Global: -1}, val.Int)
		}
	}
	for gid, val := range rec.Globals.All() {
		if !val.IsArray() {
			add(replay.Override{Slot: -1, Global: gid}, val.Int)
		}
	}
	return out
}

// TestWhatIfMatchesReference pins Controller.WhatIf (pooled, untraced)
// to referenceWhatIf (fresh traced VMs, cloned book) on the standard
// workloads and crash.mpl: the error, the changed globals, and each
// side's final globals, completion, failure text and instruction count
// must be identical.
//
// Every interval gets an identity what-if, checked for a change-free
// answer. The override matrix runs on every interval of a program with
// at most refIntervals of them, and on refIntervals evenly spaced ones
// otherwise: divide has 4096 nested intervals, and overriding a leaf's
// bounds re-runs most of its call tree. The reference pays for a trace
// event per instruction, so it replays at most refBudget instructions
// per program; a case that would overrun that is skipped and counted.
func TestWhatIfMatchesReference(t *testing.T) {
	var compared, traps, cures, flow int
	for _, p := range whatIfPrograms(t) {
		art, v, c := loggedController(t, p, Config{})
		var intervals [][2]int
		for pid, book := range v.Log.Books {
			for idx, rec := range book.Records {
				if rec.Kind == logging.RecPrelog {
					intervals = append(intervals, [2]int{pid, idx})
				}
			}
		}
		for _, iv := range intervals {
			checkIdentityWhatIf(t, p.name, c, iv[0], iv[1])
		}
		var spent int64
		step, skipped := max(1, len(intervals)/refIntervals), 0
		for i := 0; i < len(intervals); i += step {
			pid, idx := intervals[i][0], intervals[i][1]
			book := v.Log.Books[pid]
			for _, ov := range whatIfCases(book.Records[idx]) {
				label := fmt.Sprintf("%s P%d interval %d %+v", p.name, pid, idx, ov[0])
				got, gotErr := c.WhatIf(pid, idx, ov)
				if gotErr == nil {
					cost := got.Original.Steps + got.Modified.Steps
					if spent+cost > refBudget {
						skipped++
						continue
					}
					spent += cost
				}
				want, wantErr := referenceWhatIf(art.Prog, book, idx, ov)
				if !compareWhatIf(t, label, got, gotErr, want, wantErr) {
					continue
				}
				compared++
				o, m := got.Original, got.Modified
				switch {
				case m.Err != nil && strings.Contains(m.Err.Error(), "division by zero") && errText(m.Err) != errText(o.Err):
					traps++
				case o.Err != nil && m.Err == nil:
					cures++
				}
				if o.Steps != m.Steps {
					flow++
				}
			}
		}
		t.Logf("%s: every %d-th of %d intervals against the reference, %d cases over budget",
			p.name, step, len(intervals), skipped)
	}
	t.Logf("%d what-ifs compared: %d trapping, %d curing, %d changing the instruction count",
		compared, traps, cures, flow)
	if traps == 0 || cures == 0 || flow == 0 {
		t.Errorf("the override set must trap, cure and change control flow at least once each")
	}
}

// checkIdentityWhatIf runs a what-if that overrides nothing and checks
// that both replays agree on everything.
func checkIdentityWhatIf(t *testing.T, name string, c *Controller, pid, idx int) {
	t.Helper()
	res, err := c.WhatIf(pid, idx, nil)
	if err != nil {
		t.Fatalf("%s P%d interval %d: %v", name, pid, idx, err)
	}
	o, m := res.Original, res.Modified
	if len(res.ChangedGlobals) != 0 || o.Completed != m.Completed || errText(o.Err) != errText(m.Err) || o.Steps != m.Steps {
		t.Errorf("%s P%d interval %d: identity what-if differs: %s", name, pid, idx, whatIfKey(res))
	}
}

// compareWhatIf reports every difference between a Controller.WhatIf
// answer and the reference's, and whether both produced a result.
func compareWhatIf(t *testing.T, label string, got *replay.WhatIfResult, gotErr error, want *refWhatIfResult, wantErr error) bool {
	t.Helper()
	if errText(gotErr) != errText(wantErr) {
		t.Errorf("%s: error %q, reference %q", label, errText(gotErr), errText(wantErr))
		return false
	}
	if gotErr != nil {
		return false
	}
	if !slices.Equal(got.ChangedGlobals, want.ChangedGlobals) {
		t.Errorf("%s: changed globals %v, reference %v", label, got.ChangedGlobals, want.ChangedGlobals)
	}
	for _, side := range []struct {
		name string
		got  *emulation.Outcome
		want *emulation.Result
	}{{"original", got.Original, want.Original}, {"modified", got.Modified, want.Modified}} {
		g, w := side.got, side.want
		if gs, ws := fmt.Sprint(g.Globals), fmt.Sprint(w.Globals); gs != ws {
			t.Errorf("%s: %s globals %s, reference %s", label, side.name, gs, ws)
		}
		if g.Completed != w.Completed || errText(g.Err) != errText(w.Err) || g.Steps != w.Steps {
			t.Errorf("%s: %s (completed %v, err %q, %d steps), reference (%v, %q, %d)", label, side.name,
				g.Completed, errText(g.Err), g.Steps, w.Completed, errText(w.Err), w.Steps)
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// whatIfKey renders everything a what-if answers, for equality checks.
func whatIfKey(res *replay.WhatIfResult) string {
	side := func(o *emulation.Outcome) string {
		return fmt.Sprintf("%v %v %q %d", o.Globals, o.Completed, errText(o.Err), o.Steps)
	}
	return fmt.Sprintf("%v | %s | %s", res.ChangedGlobals, side(res.Original), side(res.Modified))
}

// TestWhatIfConcurrentWithGraphAndPrefetch runs what-ifs while other
// goroutines build graphs and prefetch on the same controller: all of
// them check replay contexts out of the one shared pool. Every answer
// must equal a sequential controller's (run under -race in CI).
func TestWhatIfConcurrentWithGraphAndPrefetch(t *testing.T) {
	p := whatIfProgram{"tokenring", workloads.TokenRing(3, 20).Src}
	art, v, c := loggedController(t, p, Config{Workers: 2})
	seq := New(art, v.Log, Config{Failure: v.Failure, Deadlock: v.Deadlock})

	type query struct {
		pid, idx int
		ov       []replay.Override
		want     string
		graph    string
	}
	var qs []query
	for pid, book := range v.Log.Books {
		for idx, rec := range book.Records {
			if rec.Kind != logging.RecPrelog {
				continue
			}
			for _, ov := range whatIfCases(rec) {
				res, err := seq.WhatIf(pid, idx, ov)
				if err != nil {
					t.Fatal(err)
				}
				g, err := seq.Graph(pid, idx)
				if err != nil {
					t.Fatal(err)
				}
				qs = append(qs, query{pid, idx, ov, whatIfKey(res), g.String()})
			}
		}
	}
	if len(qs) == 0 {
		t.Fatal("no what-if cases")
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range qs {
				q := qs[(i+w*7)%len(qs)]
				switch w % 3 {
				case 0, 1:
					res, err := c.WhatIf(q.pid, q.idx, q.ov)
					if err != nil {
						t.Errorf("WhatIf: %v", err)
						return
					}
					if got := whatIfKey(res); got != q.want {
						t.Errorf("P%d interval %d %+v: concurrent what-if %s, sequential %s",
							q.pid, q.idx, q.ov[0], got, q.want)
					}
				case 2:
					g, err := c.Graph(q.pid, q.idx)
					if err != nil {
						t.Errorf("Graph: %v", err)
						return
					}
					if g.String() != q.graph {
						t.Errorf("P%d interval %d: concurrent graph differs", q.pid, q.idx)
					}
					c.PrefetchNeighbors(q.pid, q.idx)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkWhatIf is E24's microbenchmark: one what-if at the focus
// interval of process 0 of each standard workload, the override
// restating the first scalar global's logged value (the repo benchmark's
// flowback what-if). Both replays run, so ns/op is two untraced
// replays of the interval; allocs/op is the per-what-if constant.
func BenchmarkWhatIf(b *testing.B) {
	for _, wl := range workloads.Standard() {
		b.Run(wl.Name, func(b *testing.B) {
			art, v, c := loggedController(b, whatIfProgram{wl.Name, wl.Src}, Config{})
			idx, err := c.FocusInterval(0)
			if err != nil {
				b.Fatal(err)
			}
			ov := identityOverride(art.Prog, v.Log.Books[0].Records[idx])
			b.ReportAllocs()
			b.ResetTimer()
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := c.WhatIf(0, idx, ov)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.ChangedGlobals) != 0 || errText(res.Modified.Err) != errText(res.Original.Err) {
					b.Fatalf("identity what-if changed the outcome: %s", whatIfKey(res))
				}
				steps = res.Modified.Steps
			}
			b.ReportMetric(float64(steps), "steps/replay")
		})
	}
}

// identityOverride sets the program's first scalar global to the value it
// has at the start of the interval (its logged value, or its initial one).
func identityOverride(prog *bytecode.Program, rec *logging.Record) []replay.Override {
	init := replay.InitialGlobals(prog)
	for gid, def := range prog.Globals {
		if def.Kind != bytecode.GlobalVar || def.IsArray {
			continue
		}
		val := init[gid].Int
		if got, ok := rec.Globals.Get(gid); ok {
			val = got.Int
		}
		return []replay.Override{{Slot: -1, Global: gid, Value: val}}
	}
	return nil
}

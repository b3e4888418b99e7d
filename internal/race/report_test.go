package race

import (
	"fmt"
	"strings"
	"testing"

	"ppd/internal/bitset"
	"ppd/internal/eblock"
	"ppd/internal/parallel"
	"ppd/internal/workloads"
)

// reportFmt is the fmt-based renderer Report replaced, kept as the
// reference Report must match byte for byte.
func reportFmt(races []*Race, globalName func(int) string) string {
	if len(races) == 0 {
		return "no races detected: the execution instance is race-free (Def 6.4)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d race(s) detected:\n", len(races))
	for _, r := range races {
		var joined string
		switch {
		case globalName != nil:
			names := make([]string, len(r.Vars))
			for i, v := range r.Vars {
				names[i] = globalName(v)
			}
			joined = strings.Join(names, ",")
		case len(r.Names) == len(r.Vars) && len(r.Names) > 0:
			joined = strings.Join(r.Names, ",")
		default:
			joined = fmt.Sprintf("%v", r.Vars)
		}
		fmt.Fprintf(&sb, "  %s race: P%d [events %d..%d] vs P%d [events %d..%d] on %s\n",
			r.Kind, r.E1.PID+1, r.E1.Start, r.E1.End,
			r.E2.PID+1, r.E2.Start, r.E2.End, joined)
	}
	return sb.String()
}

// stringFmt is the fmt-based Race.String the writer version replaced,
// kept as its byte-for-byte reference.
func stringFmt(r *Race) string {
	return fmt.Sprintf("%s race between P%d edge %d and P%d edge %d on %s",
		r.Kind, r.E1.PID+1, r.E1.ID, r.E2.PID+1, r.E2.ID, r.VarNames())
}

// reportWorkloads are the standard workloads plus the racy and
// lock-guarded families and a two-variable racer, so the byte-identity
// check sees long reports, multi-variable races, and race-free runs alike.
func reportWorkloads() []*workloads.Workload {
	pair := &workloads.Workload{Name: "racypair", Src: `
shared a;
shared b;
sem done = 0;
func w() { a = a + 1; b = b + 1; V(done); }
func main() { spawn w(); spawn w(); spawn w(); P(done); P(done); P(done); }`}
	return append(workloads.Standard(), pair,
		workloads.RacyCounter(4, 6, false),
		workloads.RacyCounter(3, 5, true),
		workloads.RacyTicker(4, 8),
		workloads.Sharded(4, 8),
		workloads.GuardedCounter(4, 6),
		workloads.Relay(3, 6),
	)
}

// logGraph compiles wl, runs it logged under (quantum, seed), and returns
// the parallel graph and the program's global names.
func logGraph(tb testing.TB, wl *workloads.Workload, quantum int, seed int64) (*parallel.Graph, []string) {
	tb.Helper()
	g, art := buildGraph(tb, wl, eblock.Config{}, quantum, seed)
	names := make([]string, len(art.Prog.Globals))
	for gid, def := range art.Prog.Globals {
		names[gid] = def.Name
	}
	return g, names
}

// TestReportByteIdentical holds Report to the fmt reference across the
// workloads × seeds × quantum {1, 3}, in all three naming modes: a namer,
// nil over races carrying graph Names, and nil over races without names
// (the "[0 2]" form). Each race's String is held to its fmt reference too.
func TestReportByteIdentical(t *testing.T) {
	multiVar := false
	for _, wl := range reportWorkloads() {
		for _, quantum := range []int{1, 3} {
			for _, seed := range []int64{0, 5} {
				g, names := logGraph(t, wl, quantum, seed)
				bare := Detect(g, Opts{})
				g.VarNames = names
				named := Detect(g, Opts{})
				namer := func(gid int) string { return names[gid] }
				for _, r := range bare {
					multiVar = multiVar || len(r.Vars) > 1
				}
				for _, r := range append(bare, named...) {
					if got, want := r.String(), stringFmt(r); got != want {
						t.Errorf("%s q%d seed %d: String = %q, fmt reference %q", wl.Name, quantum, seed, got, want)
					}
				}
				for _, tc := range []struct {
					label string
					races []*Race
					namer func(int) string
				}{
					{"namer", named, namer},
					{"graph names", named, nil},
					{"no names", bare, nil},
				} {
					if got, want := Report(tc.races, tc.namer), reportFmt(tc.races, tc.namer); got != want {
						t.Errorf("%s q%d seed %d, %s: Report differs from the fmt reference:\n got: %q\nwant: %q",
							wl.Name, quantum, seed, tc.label, got, want)
					}
				}
			}
		}
	}
	if !multiVar {
		t.Error("no race conflicts on more than one variable; the separators go unchecked")
	}
}

// TestReportByteIdenticalEdgeCases covers the renderings the workloads
// may not reach: no conflict variables, names that do not cover Vars, an
// unknown conflict kind, and large event numbers — in Report and in
// Race.String.
func TestReportByteIdenticalEdgeCases(t *testing.T) {
	e1 := &parallel.InternalEdge{ID: 3, PID: 0, Start: -1, End: 123456789, Reads: bitset.New(4), Writes: bitset.New(4)}
	e2 := &parallel.InternalEdge{ID: 9, PID: 11, Start: 40, End: 41, Reads: bitset.New(4), Writes: bitset.New(4)}
	races := []*Race{
		{E1: e1, E2: e2, Kind: WriteWrite},
		{E1: e1, E2: e2, Kind: WriteRead, Vars: []int{0, 2, 3}},
		{E1: e1, E2: e2, Kind: ReadWrite, Vars: []int{1, 2}, Names: []string{"only"}},
		{E1: e1, E2: e2, Kind: Conflict(7), Vars: []int{2}, Names: []string{"x"}},
	}
	namer := func(gid int) string { return fmt.Sprintf("g%d", gid) }
	for _, nm := range []func(int) string{nil, namer} {
		if got, want := Report(races, nm), reportFmt(races, nm); got != want {
			t.Errorf("Report differs from the fmt reference:\n got: %q\nwant: %q", got, want)
		}
	}
	for _, r := range races {
		if got, want := r.VarNames(), reportFmt([]*Race{r}, nil); !strings.HasSuffix(want, " on "+got+"\n") {
			t.Errorf("VarNames = %q, reference line %q", got, want)
		}
		if got, want := r.String(), stringFmt(r); got != want {
			t.Errorf("String = %q, fmt reference %q", got, want)
		}
	}
}

// BenchmarkRaceReport renders the racy-ticker report of the triage mix's
// size (thousands of races) through a namer, as Controller.RaceReport does.
func BenchmarkRaceReport(b *testing.B) {
	g, names := logGraph(b, workloads.RacyTicker(4, 60), 3, 1)
	races := Detect(g, Opts{})
	namer := func(gid int) string { return names[gid] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Report(races, namer)
	}
	b.ReportMetric(float64(len(races)), "races")
}

package race_test

import (
	"context"
	"fmt"
	"os"
	"testing"

	"ppd"
	"ppd/internal/bitset"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/mplgen"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// referenceGraph is the graph oracle: a retain-mode Builder fed whole
// books in pid order, a feed that is not generation order, so every
// cross-process source arrives through the builder's waiting and pending
// paths instead of the counted pass's gsn index.
func referenceGraph(pl *logging.ProgramLog, nShared int) *parallel.Graph {
	b := parallel.NewBuilder(nShared)
	b.SetNumProcs(pl.NumProcs())
	for pid, book := range pl.Books {
		var feed []parallel.FeedRecord
		for ri, r := range book.Records {
			switch r.Kind {
			case logging.RecSync, logging.RecStart, logging.RecExit:
				feed = append(feed, parallel.FeedRecord{
					PID: pid, RecIdx: ri, Kind: r.Kind, Op: r.Op, Obj: r.Obj, Stmt: r.Stmt,
					Gsn: r.Gsn, FromGsn: r.FromGsn, Reads: r.Reads, Writes: r.Writes,
				})
			}
		}
		b.Feed(feed)
	}
	return b.Finish(pl)
}

// oracleRun is one logged run under test.
type oracleRun struct {
	name  string
	log   *logging.ProgramLog
	names []string // variable names by GlobalID
	mask  *bitset.Set
}

func newOracleRun(name string, art *compile.Artifacts, pl *logging.ProgramLog) oracleRun {
	names := make([]string, len(art.Prog.Globals))
	for gid, def := range art.Prog.Globals {
		names[gid] = def.Name
	}
	return oracleRun{name: name, log: pl, names: names, mask: art.Vet(nil).Conflicts.Mask()}
}

// loggedRun compiles src and runs it logged; failures and deadlocks are
// runs like any other.
func loggedRun(tb testing.TB, name, src string, quantum int, seed int64) (oracleRun, *vm.VM) {
	tb.Helper()
	art, err := compile.Compile(source.NewFile(name, src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		tb.Fatalf("%s: compile: %v", name, err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: quantum, Seed: seed})
	_ = v.Run()
	return newOracleRun(name, art, v.Log), v
}

// checkOracle holds parallel.Build to the pid-order reference, field by
// field and through Graph.String, and holds Detect over the built graph
// to Naive, masked and unmasked.
func checkOracle(t *testing.T, r oracleRun) {
	t.Helper()
	nShared := len(r.names)
	g, ref := parallel.Build(r.log, nShared), referenceGraph(r.log, nShared)
	if err := sameGraph(g, ref); err != nil {
		t.Fatalf("%s: Build differs from the pid-order reference: %v", r.name, err)
	}
	if got, want := g.String(), ref.String(); got != want {
		t.Fatalf("%s: Build renders\n%s\nthe reference\n%s", r.name, got, want)
	}
	g.VarNames, ref.VarNames = r.names, r.names
	want := race.Report(race.Naive(ref), nil)
	for _, m := range []*bitset.Set{nil, r.mask} {
		if got := race.Report(race.Detect(g, race.Opts{Mask: m}), nil); got != want {
			t.Fatalf("%s mask %v: Detect diverges from Naive\ngot:\n%swant:\n%s", r.name, m, got, want)
		}
	}
}

// sameGraph compares every event's and edge's fields, the sync edges and
// the per-process edge windows.
func sameGraph(g, ref *parallel.Graph) error {
	if g.NumProcs() != ref.NumProcs() || g.NumShared() != ref.NumShared() {
		return fmt.Errorf("%d procs/%d shared, want %d/%d", g.NumProcs(), g.NumShared(), ref.NumProcs(), ref.NumShared())
	}
	if len(g.Events) != len(ref.Events) || len(g.Edges) != len(ref.Edges) {
		return fmt.Errorf("%d events/%d edges, want %d/%d", len(g.Events), len(g.Edges), len(ref.Events), len(ref.Edges))
	}
	for i, ev := range g.Events {
		re := ref.Events[i]
		if ev.ID != re.ID || ev.PID != re.PID || ev.Idx != re.Idx || ev.Op != re.Op || ev.Kind != re.Kind ||
			ev.Obj != re.Obj || ev.Stmt != re.Stmt || ev.Gsn != re.Gsn || ev.From != re.From || fmt.Sprint(ev.Clock) != fmt.Sprint(re.Clock) {
			return fmt.Errorf("event %d: %+v, want %+v", i, *ev, *re)
		}
	}
	for i, e := range g.Edges {
		re := ref.Edges[i]
		if e.ID != re.ID || e.PID != re.PID || e.Start != re.Start || e.End != re.End ||
			e.StartRec != re.StartRec || e.EndRec != re.EndRec || !e.Reads.Equal(re.Reads) || !e.Writes.Equal(re.Writes) {
			return fmt.Errorf("edge %d: %+v, want %+v", i, *e, *re)
		}
	}
	if fmt.Sprint(g.SyncEdges) != fmt.Sprint(ref.SyncEdges) {
		return fmt.Errorf("sync edges %v, want %v", g.SyncEdges, ref.SyncEdges)
	}
	for pid := 0; pid < g.NumProcs(); pid++ {
		got, want := g.EdgesOf(pid), ref.EdgesOf(pid)
		if len(got) != len(want) {
			return fmt.Errorf("EdgesOf(%d): %d edges, want %d", pid, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				return fmt.Errorf("EdgesOf(%d)[%d] = edge %d, want %d", pid, i, got[i].ID, want[i].ID)
			}
		}
	}
	return nil
}

// checkSparse runs checkOracle once more with every gsn multiplied by
// 1000, which sends the build to its gsn map and comparison sort.
func checkSparse(t *testing.T, r oracleRun) {
	t.Helper()
	scale := func(mul, div uint64) {
		for _, book := range r.log.Books {
			for _, rec := range book.Records {
				rec.Gsn, rec.FromGsn = rec.Gsn*mul/div, rec.FromGsn*mul/div
			}
		}
	}
	scale(1000, 1)
	defer scale(1, 1000)
	r.name += "/sparse-gsns"
	checkOracle(t, r)
}

// oraclePrograms is how many programs each mplgen config contributes to
// TestGraphOracle; each runs under three quanta.
const oraclePrograms = 300

// TestGraphOracle is the graph and race oracle: over 600 generated racy
// and parallel programs × quantum 1/3/7, parallel.Build equals the
// pid-order reference and every detector equals Naive (checkOracle);
// every tenth case is also checked with sparse gsns. The runs generated
// programs never make are checked too: a deadlocked run, a failed run,
// and logs a StopAtFirstRace run cut short.
func TestGraphOracle(t *testing.T) {
	n := oraclePrograms
	if testing.Short() {
		n = 20
	}
	cases := 0
	for _, c := range []struct {
		name string
		cfg  mplgen.Config
	}{{"racy", mplgen.RacyConfig()}, {"parallel", mplgen.ParallelConfig()}} {
		for seed := int64(0); seed < int64(n); seed++ {
			src := mplgen.Generate(seed, c.cfg)
			for _, q := range []int{1, 3, 7} {
				r, _ := loggedRun(t, fmt.Sprintf("mplgen-%s-%d/q%d", c.name, seed, q), src, q, seed)
				checkOracle(t, r)
				if cases%10 == 0 {
					checkSparse(t, r)
				}
				cases++
			}
		}
	}
	t.Logf("%d generated cases", cases)

	dl, v := loggedRun(t, "deadlock", deadlockSrc, 1, 0)
	if !v.Deadlock {
		t.Fatal("the lock-order inversion did not deadlock")
	}
	checkOracle(t, dl)
	checkSparse(t, dl)

	crash, err := os.ReadFile("../../testdata/crash.mpl")
	if err != nil {
		t.Fatal(err)
	}
	failed, v := loggedRun(t, "crash", string(crash), 1, 0)
	if v.Failure == nil {
		t.Fatal("crash.mpl did not fail")
	}
	checkOracle(t, failed)

	stopped := 0
	for _, wl := range []*workloads.Workload{workloads.RacyCounter(4, 30, false), workloads.RacyTicker(4, 20)} {
		prog, err := ppd.CompileOpts(wl.Name+".mpl", wl.Src, eblock.DefaultConfig(), ppd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 5; seed++ {
			exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{Quantum: 1, Seed: seed, StopAtFirstRace: true})
			if err != nil {
				t.Fatal(err)
			}
			if exec.StoppedAtRace() {
				stopped++
			}
			r := newOracleRun(fmt.Sprintf("%s/first-race-s%d", wl.Name, seed), prog.Artifacts(), exec.Log())
			checkOracle(t, r)
			checkSparse(t, r)
		}
	}
	if stopped == 0 {
		t.Error("no StopAtFirstRace run stopped early: the truncated-log case went untested")
	}
}

// TestDetectNeedsBuildOrder pins that Detect refuses a graph without a
// recorded generation order: the pid-order reference records none, and
// replaying its pid-order feed would lose races rather than fail.
func TestDetectNeedsBuildOrder(t *testing.T) {
	r, _ := loggedRun(t, "racy-counter", workloads.RacyCounter(4, 30, false).Src, 1, 0)
	ref := referenceGraph(r.log, len(r.names))
	if n := len(ref.Order()); n != 0 {
		t.Fatalf("a finished Builder recorded an order of %d nodes", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Detect over a graph without a recorded order did not panic")
		}
	}()
	race.Detect(ref, race.Opts{})
}

// deadlockSrc is examples/deadlock's lock-order inversion, with a shared
// variable each side writes before blocking.
const deadlockSrc = `
shared x;
sem disk = 1;
sem net = 1;
sem started = 0;
func transfer() { P(net); x = 1; V(started); P(disk); V(disk); V(net); }
func main() { P(disk); spawn transfer(); P(started); x = 2; P(net); V(net); V(disk); }
`

package stream_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"ppd/internal/bitset"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/source"
	"ppd/internal/stream"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// capturedRun is one logged execution observed two ways at once: the tap
// copies the sync-relevant records in generation order (exactly what the
// production tee sees), and the retained log is the input to the
// post-mortem graph and the Naive oracle. Both views come from the same
// run, so any divergence between the online pipeline and the oracle is
// the pipeline's fault, not schedule noise.
type capturedRun struct {
	recs  []parallel.FeedRecord
	v     *vm.VM
	art   *compile.Artifacts
	mask  *bitset.Set
	names []string
}

func captureRun(tb testing.TB, name, src string, seed int64, quantum int) *capturedRun {
	tb.Helper()
	art, err := compile.Compile(source.NewFile(name, src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		tb.Fatalf("compile %s: %v", name, err)
	}
	cr := &capturedRun{art: art}
	v := vm.New(art.Prog, vm.Options{
		Mode: vm.ModeLog, Seed: seed, Quantum: quantum, Output: io.Discard,
		Tap: func(pid, idx int, r *logging.Record) {
			switch r.Kind {
			case logging.RecSync, logging.RecStart, logging.RecExit:
			default:
				return
			}
			cr.recs = append(cr.recs, parallel.FeedRecord{
				PID:     pid,
				RecIdx:  idx,
				Kind:    r.Kind,
				Op:      r.Op,
				Obj:     r.Obj,
				Stmt:    r.Stmt,
				Gsn:     r.Gsn,
				FromGsn: r.FromGsn,
				Reads:   append([]int(nil), r.Reads...),
				Writes:  append([]int(nil), r.Writes...),
			})
		},
	})
	if err := v.Run(); err != nil {
		tb.Fatalf("run %s: %v", name, err)
	}
	cr.v = v
	cr.names = make([]string, len(art.Prog.Globals))
	for i, g := range art.Prog.Globals {
		cr.names[i] = g.Name
	}
	cr.mask = art.Vet(nil).Conflicts.Mask()
	return cr
}

func (cr *capturedRun) oracleGraph() *parallel.Graph {
	g := parallel.Build(cr.v.Log, len(cr.art.Prog.Globals))
	g.VarNames = cr.names
	return g
}

// onlineResult replays the captured record stream through a fresh
// pipeline, batch records at a time (batch <= 0 feeds everything in one
// call).
func onlineResult(cr *capturedRun, batch int) *stream.Result {
	p := stream.New(stream.Config{
		NShared:  len(cr.art.Prog.Globals),
		Mask:     cr.mask,
		VarNames: cr.names,
	})
	feedBatches(p, cr.recs, batch)
	return p.Finish()
}

func feedBatches(p *stream.Pipeline, recs []parallel.FeedRecord, batch int) {
	if batch <= 0 {
		p.Feed(recs)
		return
	}
	for i := 0; i < len(recs); i += batch {
		j := min(i+batch, len(recs))
		p.Feed(recs[i:j])
	}
}

// TestOnlineRacesByteIdentical is the pipeline's acceptance gate: over
// the full workload × (seed, quantum) matrix, the online detector's final
// race set — fed at every batch size — renders byte-identically
// (race.Report) to the Naive oracle over the finished graph. Streaming is
// an execution strategy, not a different answer.
func TestOnlineRacesByteIdentical(t *testing.T) {
	cases := workloads.Standard()
	cases = append(cases,
		workloads.Sharded(3, 50),
		workloads.Relay(3, 25),
		workloads.RacyCounter(3, 30, false),
		workloads.RacyCounter(2, 12, true),
		// main exits right after its last spawn, without joining.
		&workloads.Workload{Name: "spawn-and-exit", Src: `
shared x;
func w() { x = x + 1; }
func main() { spawn w(); spawn w(); }`},
	)
	configs := []struct {
		seed    int64
		quantum int
	}{{0, 5}, {3, 40}, {1, 1}, {2, 3}}
	batches := []int{1, 7, 64, 0} // 0 = the whole stream in one Feed

	for _, wl := range cases {
		for _, cfg := range configs {
			t.Run(fmt.Sprintf("%s/s%d_q%d", wl.Name, cfg.seed, cfg.quantum), func(t *testing.T) {
				cr := captureRun(t, wl.Name+".mpl", wl.Src, cfg.seed, cfg.quantum)
				want := race.Report(race.Naive(cr.oracleGraph()), nil)
				for _, b := range batches {
					res := onlineResult(cr, b)
					got := race.Report(res.Races, nil)
					if got != want {
						t.Errorf("online (batch=%d) diverges from Naive:\n got: %swant: %s", b, got, want)
					}
					if res.Events != int64(len(cr.recs)) {
						t.Errorf("online (batch=%d) built %d events from %d records", b, res.Events, len(cr.recs))
					}
				}
			})
		}
	}
}

// raceEventFmt is the fmt-based RaceEvent.String the writer version
// replaced, kept as its byte-for-byte reference.
func raceEventFmt(ev stream.RaceEvent) string {
	vars := fmt.Sprintf("%v", ev.Vars)
	if len(ev.Names) == len(ev.Vars) && len(ev.Names) > 0 {
		vars = strings.Join(ev.Names, ",")
	}
	return fmt.Sprintf("%s race: P%d edge %d vs P%d edge %d on %s",
		ev.Kind, ev.PID1+1, ev.Edge1, ev.PID2+1, ev.Edge2, vars)
}

// TestRaceEventString holds the live race lines (ppd watch, serve's
// NDJSON stream) to the fmt reference: every online race of racy runs,
// named and unnamed, plus the renderings those runs may not reach.
func TestRaceEventString(t *testing.T) {
	var events []stream.RaceEvent
	for _, wl := range []*workloads.Workload{workloads.RacyCounter(3, 10, false), workloads.RacyTicker(3, 8)} {
		cr := captureRun(t, wl.Name+".mpl", wl.Src, 1, 3)
		for _, names := range [][]string{cr.names, nil} {
			p := stream.New(stream.Config{
				NShared:  len(cr.art.Prog.Globals),
				VarNames: names,
				OnRace:   func(ev stream.RaceEvent) { events = append(events, ev) },
			})
			p.Feed(cr.recs)
			p.Finish()
		}
	}
	if len(events) == 0 {
		t.Fatal("the racy runs raced nowhere")
	}
	events = append(events,
		stream.RaceEvent{Kind: race.WriteWrite, PID1: 0, Edge1: 123456789, PID2: 11, Edge2: 0},
		stream.RaceEvent{Kind: race.ReadWrite, Vars: []int{1, 2}, Names: []string{"only"}},
		stream.RaceEvent{Kind: race.Conflict(7), Vars: []int{2, 64}, Names: []string{"x", "y"}},
	)
	for _, ev := range events {
		if got, want := ev.String(), raceEventFmt(ev); got != want {
			t.Errorf("String = %q, fmt reference %q", got, want)
		}
	}
}

// TestFrontierRetirement pins the memory bound: when every process keeps
// synchronizing (Relay — main is in the ring), nearly every edge retires
// while the run is still going and the frontier high-water mark stays far
// below the total. The live state is bounded by the frontier width, not
// the run length.
//
// The contrast case is pinned too: TokenRing's main blocks on P(done)
// from spawn to teardown, and a live process that stops synchronizing
// correctly holds the frontier open — its next edge is concurrent with
// everything produced meanwhile, so retiring would lose races. There the
// guarantee degrades to "everything retires by Finish".
func TestFrontierRetirement(t *testing.T) {
	t.Run("relay", func(t *testing.T) {
		wl := workloads.Relay(4, 150)
		cr := captureRun(t, wl.Name+".mpl", wl.Src, 1, 7)
		res := onlineResult(cr, 64)
		if res.Events < 500 {
			t.Fatalf("workload too small to exercise retirement: %d events", res.Events)
		}
		if res.Retired < res.Events*8/10 {
			t.Errorf("only %d of %d edges retired before Finish; frontier is not retiring", res.Retired, res.Events)
		}
		if res.Highwater*4 > res.Events {
			t.Errorf("frontier high-water %d vs %d events; live state is not sublinear", res.Highwater, res.Events)
		}
	})
	t.Run("tokenring-pinned", func(t *testing.T) {
		wl := workloads.TokenRing(4, 100)
		cr := captureRun(t, wl.Name+".mpl", wl.Src, 1, 7)
		res := onlineResult(cr, 64)
		if res.Retired < res.Events*8/10 {
			t.Errorf("only %d of %d edges retired by Finish", res.Retired, res.Events)
		}
	})
}

// FuzzStreamBatches drives the differential check with adversarial batch
// boundaries: the fuzz input is interpreted as a sequence of batch sizes,
// and every partition of the record stream must produce the Naive
// oracle's exact report. Any divergence is a real soundness bug (a frontier
// retirement that was too eager, a source matched across the wrong
// boundary), never flake.
func FuzzStreamBatches(f *testing.F) {
	wl := workloads.RacyCounter(3, 10, false)
	cr := captureRun(f, wl.Name+".mpl", wl.Src, 2, 3)
	want := race.Report(race.Naive(cr.oracleGraph()), nil)

	f.Add([]byte{1})
	f.Add([]byte{7, 1, 255})
	f.Add([]byte{0, 0, 3})
	f.Add([]byte{64, 2, 2, 2, 90})
	f.Fuzz(func(t *testing.T, sizes []byte) {
		p := stream.New(stream.Config{
			NShared:  len(cr.art.Prog.Globals),
			Mask:     cr.mask,
			VarNames: cr.names,
		})
		recs := cr.recs
		for i := 0; len(recs) > 0; i++ {
			n := 1
			if len(sizes) > 0 {
				n = int(sizes[i%len(sizes)])
			}
			if n <= 0 {
				n = 1 // zero-sized batches would never drain the stream
			}
			n = min(n, len(recs))
			p.Feed(recs[:n])
			recs = recs[n:]
		}
		res := p.Finish()
		got := race.Report(res.Races, nil)
		if got != want {
			t.Errorf("batch partition %v diverges:\n got: %swant: %s", sizes, got, want)
		}
	})
}

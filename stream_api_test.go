package ppd

import (
	"context"
	"io"
	"sync/atomic"
	"testing"

	"ppd/internal/eblock"
	"ppd/internal/workloads"
)

// monitoredWorkload compiles and runs a workload with the online pipeline
// attached and returns the execution.
func monitoredWorkload(t *testing.T, wl *workloads.Workload, opts Options) *Execution {
	t.Helper()
	prog, err := CompileOpts(wl.Name+".mpl", wl.Src, eblock.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := prog.RunLoggedContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

// TestMonitoredRunMatchesBatch is the public-API face of the oracle
// contract: a monitored run's online race report is byte-identical to the
// batch detector's report over the very same log.
func TestMonitoredRunMatchesBatch(t *testing.T) {
	for _, wl := range []*workloads.Workload{
		workloads.RacyCounter(3, 20, false),
		workloads.RacyCounter(2, 8, true),
		workloads.Relay(3, 30),
	} {
		for _, opts := range []Options{
			{Seed: 0, Quantum: 1, Monitor: true},
			{Seed: 5, Quantum: 7, Monitor: true, StreamBatch: 3},
		} {
			exec := monitoredWorkload(t, wl, opts)
			if !exec.Monitored() {
				t.Fatalf("%s: run was not monitored", wl.Name)
			}
			online, batch := exec.OnlineRaceReport(), exec.RaceReport()
			if online != batch {
				t.Errorf("%s (seed=%d quantum=%d batch=%d): online report diverges\n--- online\n%s--- batch\n%s",
					wl.Name, opts.Seed, opts.Quantum, opts.StreamBatch, online, batch)
			}
		}
	}
}

// TestOnRaceFiresDuringRun pins the streaming property the whole PR is
// for: the callback observes races while the execution is still running,
// and every callback race is in the final set.
func TestOnRaceFiresDuringRun(t *testing.T) {
	var fired atomic.Int64
	exec := monitoredWorkload(t, workloads.RacyCounter(3, 40, false),
		Options{Quantum: 1, StreamBatch: 1, OnRace: func(ev RaceEvent) { fired.Add(1) }})
	if fired.Load() == 0 {
		t.Fatal("OnRace never fired on a racy run")
	}
	if got := int64(exec.OnlineResult().Online); got < fired.Load() {
		t.Errorf("callback fired %d times but result counted %d online races", fired.Load(), got)
	}
	if len(exec.OnlineRaces()) == 0 {
		t.Error("no races in the final online set")
	}
}

// TestStopAtFirstRaceAborts pins early abort: a long racy run cancelled
// at the first race produces a much shorter log than the full run, the
// execution is marked, and the triggering races are reported. The partial
// log is still well-formed — the batch detector agrees with the online
// set on it.
func TestStopAtFirstRaceAborts(t *testing.T) {
	wl := workloads.RacyTicker(3, 300)
	full := monitoredWorkload(t, wl, Options{Quantum: 3})
	fullSteps := full.Stats().Counter("exec.steps")

	aborted := monitoredWorkload(t, wl, Options{Quantum: 3, StopAtFirstRace: true})
	if !aborted.StoppedAtRace() {
		t.Fatal("StopAtFirstRace run did not stop at a race")
	}
	if len(aborted.OnlineRaces()) == 0 {
		t.Fatal("aborted run reports no races")
	}
	gotSteps := aborted.Stats().Counter("exec.steps")
	if fullSteps == 0 || gotSteps == 0 {
		t.Fatalf("exec.steps counter missing (full=%d, aborted=%d)", fullSteps, gotSteps)
	}
	if gotSteps*2 > fullSteps {
		t.Errorf("aborted run executed %d steps vs %d for the full run; the abort is not early", gotSteps, fullSteps)
	}
	if online, batch := aborted.OnlineRaceReport(), aborted.RaceReport(); online != batch {
		t.Errorf("partial-log online report diverges from batch:\n--- online\n%s--- batch\n%s", online, batch)
	}
}

// BenchmarkFirstRace is E20's early-abort half: a full monitored run
// against Options.StopAtFirstRace, on a racy workload that syncs every
// iteration (racy-ticker: its race surfaces within the first few) and on
// one whose workers are each one long edge (racy-counter: the abort can
// only fire near the end). steps reports the VM steps one run executed.
func BenchmarkFirstRace(b *testing.B) {
	for _, wl := range []*workloads.Workload{
		workloads.RacyTicker(3, 2000),
		workloads.RacyCounter(3, 2000, false),
	} {
		prog, err := CompileOpts(wl.Name+".mpl", wl.Src, eblock.DefaultConfig(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, variant := range []struct {
			name string
			opts Options
		}{
			{"full", Options{Quantum: 3, Monitor: true, Output: io.Discard}},
			{"first-race", Options{Quantum: 3, StopAtFirstRace: true, Output: io.Discard}},
		} {
			b.Run(wl.Name+"/"+variant.name, func(b *testing.B) {
				var exec *Execution
				for i := 0; i < b.N; i++ {
					if exec, err = prog.RunLoggedContext(context.Background(), variant.opts); err != nil {
						b.Fatal(err)
					}
				}
				if variant.opts.StopAtFirstRace && !exec.StoppedAtRace() {
					b.Fatal("StopAtFirstRace run did not stop at a race")
				}
				b.ReportMetric(float64(exec.Stats().Counter("exec.steps")), "steps")
			})
		}
	}
}

// TestSessionStreamRaces drives the session-level API: the monitored
// re-run swaps in like Rerun, the callback sees races live, and the
// returned result matches the session's batch report afterwards.
func TestSessionStreamRaces(t *testing.T) {
	wl := workloads.RacyCounter(2, 10, false)
	sess, err := OpenSession(wl.Name+".mpl", wl.Src, Options{Quantum: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	var fired atomic.Int64
	res, err := sess.StreamRaces(context.Background(), Options{Seed: 2, Quantum: 1},
		func(ev RaceEvent) { fired.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 || fired.Load() == 0 {
		t.Fatalf("StreamRaces found %d races, callback fired %d times", len(res.Races), fired.Load())
	}
	batch, err := sess.RaceReport()
	if err != nil {
		t.Fatal(err)
	}
	if online := sess.Execution().OnlineRaceReport(); online != batch {
		t.Errorf("session online report diverges from batch:\n--- online\n%s--- batch\n%s", online, batch)
	}

	// The session stays fully usable: the swap behaved like Rerun.
	if _, err := sess.Races(); err != nil {
		t.Errorf("Races after StreamRaces: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := sess.StreamRaces(context.Background(), Options{}, nil); err != ErrSessionClosed {
		t.Errorf("StreamRaces on closed session = %v, want ErrSessionClosed", err)
	}
}

// TestStreamCountersInStats pins the observability satellite: a monitored
// execution's Stats carry the stream.* counters.
func TestStreamCountersInStats(t *testing.T) {
	exec := monitoredWorkload(t, workloads.Relay(3, 40), Options{Quantum: 7, Monitor: true})
	st := exec.Stats()
	if st.Counter("stream.batches") == 0 {
		t.Error("stream.batches counter missing or zero")
	}
	if st.Counter("stream.frontier.highwater") == 0 {
		t.Error("stream.frontier.highwater counter missing or zero")
	}
	if st.Counter("stream.events.retired") == 0 {
		t.Error("stream.events.retired counter missing or zero")
	}
	// Relay is race-free: the online counter must exist as a key even at
	// zero — snapshot merging, not absence.
	if n := st.Counter("stream.races.online"); n != 0 {
		t.Errorf("stream.races.online = %d on a race-free workload", n)
	}
	racy := monitoredWorkload(t, workloads.RacyCounter(2, 10, false), Options{Quantum: 1, Monitor: true})
	if racy.Stats().Counter("stream.races.online") == 0 {
		t.Error("stream.races.online counter missing on a racy run")
	}
}

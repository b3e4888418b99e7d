package main

import (
	"bytes"
	"context"
	"fmt"

	"ppd"
	"ppd/internal/eblock"
	"ppd/internal/parallel"
	"ppd/internal/race"
)

// triage is post-mortem race triage: one client opens a session on a
// sync-heavy program under a fresh schedule, asks for the race report
// and closes it. The op is the session API's OpenSession + RaceReport +
// Close, issued as the public calls those are made of (CompileOpts and
// RunLoggedContext are OpenSession; Controller, Races and RaceReport are
// Session.RaceReport; DropCache is Close) so the traced run can put a
// span around each layer. Compiles hit the artifact cache set-up warmed.
type triage struct {
	sz    size
	seed  int64
	dir   string
	progs []program

	done *journal[triageDone] // every operation's answers, for the oracle

	warm struct {
		runs, steps, logBytes, pairs, edges int64
	}
	logRuns, logBytes int64 // the logOps prefix, measured by check
	t                 *tally
}

type triageDone struct {
	I      int64
	Prog   int32
	Seed   int64
	Report uint64
	Output uint64
}

func (w *triage) clients() int { return 1 }

func (w *triage) warmups() int { return len(w.progs) }

func (w *triage) setup(seed int64, dir string) error {
	w.seed, w.dir = seed, dir
	w.progs = triagePrograms(seed, w.sz)
	w.t = newTally()
	var err error
	if w.done, err = newJournal[triageDone](dir, "triage.answers"); err != nil {
		return err
	}
	return coldCompile(w.progs, dir)
}

func (w *triage) options(p program, seed int64, out *bytes.Buffer) ppd.Options {
	return ppd.Options{Seed: seed, Quantum: p.quantum, CacheDir: w.dir, Output: out}
}

func (w *triage) op(c *opCtx) error {
	pi := c.i % len(w.progs)
	p := w.progs[pi]
	seed := opSeed(w.seed, c.i)
	var out bytes.Buffer
	opts := w.options(p, seed, &out)

	c.begin("compile", "compile.cache_hit")
	prog, err := ppd.CompileOpts(p.name+".mpl", p.src, eblock.DefaultConfig(), opts)
	c.end()
	if err != nil {
		return err
	}
	c.begin("vm", "vm.log")
	exec, err := prog.RunLoggedContext(context.Background(), opts)
	c.end()
	if err != nil {
		return err
	}
	c.begin("compile", "compile.hydrate")
	err = prog.Artifacts().Hydrate()
	c.end()
	if err != nil {
		return err
	}
	c.begin("controller", "controller.build")
	ctl := exec.Controller()
	c.end()
	c.begin("race", "race.detect")
	exec.Races()
	c.end()
	c.begin("race", "race.report")
	report := exec.RaceReport()
	c.end()
	c.begin("controller", "controller.close")
	ctl.DropCache()
	c.end()

	if exec.Failed() != nil || exec.Deadlocked() {
		return fmt.Errorf("%s seed %d: run failed (%v) or deadlocked", p.name, seed, exec.Failed())
	}
	c.after(func() {
		w.done.add(triageDone{I: int64(c.i), Prog: int32(pi), Seed: seed, Report: hashOf(report), Output: hashOf(out.String())})
	})
	if c.i < w.warmups() {
		c.after(func() {
			st := exec.Stats()
			w.warm.runs++
			w.warm.steps += st.Counter("exec.steps")
			w.warm.logBytes += st.Counter("exec.log.bytes")
			w.warm.pairs += st.Counter("race.pairs")
			w.warm.edges += int64(len(ctl.Parallel().Edges))
		})
	}
	if c.traced() {
		c.after(func() { w.traceAfter(c, prog, exec, opts) })
	}
	return nil
}

// traceAfter reads the op's counters and probes the layers the op path
// cannot split: the unlogged run, a cold compile, the parallel graph
// build (inside Controller) and a monitored run.
func (w *triage) traceAfter(c *opCtx, prog *ppd.Program, exec *ppd.Execution, opts ppd.Options) {
	t := w.t
	t.add(exec.Stats())
	t.runs++
	t.raceRuns++
	t.buckets += len(prog.Artifacts().Prog.Globals)
	p := w.progs[c.i%len(w.progs)]
	opts.Output = nil
	c.probe("vm", "vm.run", func() { _ = prog.Run(opts) })
	c.probe("compile", "compile.cold", func() {
		_, _ = ppd.CompileOpts(p.name+".mpl", p.src, eblock.DefaultConfig(), ppd.Options{})
	})
	var g *parallel.Graph
	c.probe("parallel", "parallel.build", func() {
		g = parallel.Build(exec.Log(), len(prog.Artifacts().Prog.Globals))
	})
	t.edges += len(g.Edges)
	t.edgeRuns++
	opts.Monitor = true
	var mon *ppd.Execution
	c.probe("stream", "stream.monitored_run", func() {
		mon, _ = prog.RunLoggedContext(context.Background(), opts)
	})
	if mon != nil {
		r := mon.OnlineResult()
		t.streamRuns++
		t.streamEv += r.Events
		t.streamRet += r.Retired
		t.streamHigh += r.Highwater
	}
}

func (w *triage) repeatCounts() map[string]float64 {
	n := float64(max(1, w.warm.runs))
	return map[string]float64{
		"warmup.log_kib_per_run": float64(w.warm.logBytes) / n / 1024,
		"vm.steps_per_run":       float64(w.warm.steps) / n,
		"race.pairs_per_run":     float64(w.warm.pairs) / n,
		"parallel.edges_per_run": float64(w.warm.edges) / n,
		"dynpdg.nodes_per_graph": 0,
		"emulations":             0,
	}
}

func (w *triage) logKiB() float64 {
	return float64(w.logBytes) / float64(max(1, w.logRuns)) / 1024
}

func (w *triage) layerCounters(ls *layerSplit) map[string]float64 { return w.t.metrics(ls.ops) }

// check re-runs every operation's (program, seed, quantum) in-process and
// compares its answers with the oracle: the program's expected output
// where the workload defines one, and race.Report over race.Naive — the
// quadratic reference detector — on the run's parallel graph. Runs are
// deterministic per (source, seed, quantum), so the re-run's graph is the
// op's graph.
func (w *triage) check() (int, error) {
	failed := 0
	err := w.done.each(func(d triageDone) {
		if err := w.checkOne(d); err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(errOut, "triage: %v\n", err)
			}
		}
	})
	return failed, err
}

func (w *triage) checkOne(d triageDone) error {
	p := w.progs[d.Prog]
	var out bytes.Buffer
	sess, err := ppd.OpenSession(p.name+".mpl", p.src, w.options(p, d.Seed, &out))
	if err != nil {
		return err
	}
	defer sess.Close()
	exec := sess.Execution()
	if d.I < int64(w.warmups()+logOps) {
		w.logRuns++
		w.logBytes += int64(exec.Log().Stats().TotalBytes())
	}
	want := race.Report(race.Naive(exec.Controller().Parallel()), globalName(sess.Program()))
	if hashOf(want) != d.Report {
		return fmt.Errorf("%s seed %d: race report differs from race.Naive", p.name, d.Seed)
	}
	if p.output != "" && out.String() != p.output {
		return fmt.Errorf("%s seed %d: output %q, want %q", p.name, d.Seed, out.String(), p.output)
	}
	if hashOf(out.String()) != d.Output {
		return fmt.Errorf("%s seed %d: output differs from the in-process run", p.name, d.Seed)
	}
	return nil
}

func (w *triage) startTrace() error { return nil }

func (w *triage) close() { w.done.close() }

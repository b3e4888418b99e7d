package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ppd"
	"ppd/internal/controller"
	"ppd/internal/dynpdg"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/replay"
	"ppd/internal/workloads"
)

// flowback is interactive flowback over long-lived sessions: one client
// walks backward through dependences. Set-up opens one session per
// program shape:
//
//   - matmul: few, long intervals (the what-if tail);
//   - divide: thousands of tiny nested intervals, far more than the
//     controller's 128-entry interval cache, so walks miss;
//   - histo: certificate-gated fused loop shapes under emulation;
//   - prodcons, tokenring: cross-process provenance through messages;
//   - racy counter: racy provenance (ResolveInitial's unordered writers).
//
// One op picks a session and one of its intervals from the seed, takes
// walkSteps steps — Controller.Graph, RenderFragment to walkDepth, then a
// move to the ResolveInitial writer interval of a shared @pre read, or
// else to the previous interval — and ends with Session.ReplayTo and one
// Session.WhatIf at the walk's first interval. The execution layers and
// race detection ran in set-up only.
type flowback struct {
	sz   size
	seed int64
	sess []*fbSession

	visits  *journal[fbVisit]
	replays *journal[fbReplay]

	fragmentOrderDiffs int

	warm struct {
		runs, steps, logBytes, edges int64
		graphs, nodes                int64
		emulations                   int64
	}
	t *tally
}

const (
	walkSteps = 6
	walkDepth = 4
)

type fbSession struct {
	name    string
	sess    *ppd.Session
	exec    *ppd.Execution
	ctl     *ppd.Controller
	prelogs [][]int // per process: record indices of its prelogs
	pids    []int   // processes with at least one interval
	globals map[string]int
	scalars []string // scalar globals, what-if targets
	last    *ppd.Stats
}

type fbVisit struct {
	Op          int64
	S, PID, Idx int32
	Graph       uint64 // graphKey of the graph the walk received
	Frag        uint64 // hash of the rendered fragment
	FragErr     string // checkFragment's verdict on the fragment and graph
}

type fbReplay struct {
	Op          int64
	S, PID, Idx int32
	Snap        uint64 // hash of the restored globals
}

func (w *flowback) clients() int { return 1 }

func (w *flowback) warmups() int { return 2 * len(w.sess) }

func (w *flowback) setup(seed int64, dir string) error {
	w.seed = seed
	w.t = newTally()
	var err error
	if w.visits, err = newJournal[fbVisit](dir, "flowback.visits"); err != nil {
		return err
	}
	if w.replays, err = newJournal[fbReplay](dir, "flowback.replays"); err != nil {
		return err
	}
	n := func(full, tiny int) int {
		if w.sz.tiny {
			return tiny
		}
		return full
	}
	wls := []*workloads.Workload{
		workloads.Matmul(n(4, 3)),
		workloads.Divide(n(10, 3)),
		workloads.Histo(n(5, 2)),
		workloads.ProdCons(n(30, 6)),
		workloads.TokenRing(4, n(8, 3)),
		workloads.RacyCounter(4, n(20, 4), false),
	}
	for k, wl := range wls {
		var out strings.Builder
		sess, err := ppd.OpenSession(wl.Name+".mpl", wl.Src, ppd.Options{
			Seed: opSeed(seed, -1-k), Quantum: 4, CacheDir: dir, Output: &out,
		})
		if err != nil {
			return fmt.Errorf("open %s: %w", wl.Name, err)
		}
		if wl.Output != "" && out.String() != wl.Output {
			sess.Close()
			return fmt.Errorf("%s: output %q, want %q", wl.Name, out.String(), wl.Output)
		}
		s := &fbSession{name: wl.Name, sess: sess, exec: sess.Execution(), globals: map[string]int{}}
		w.sess = append(w.sess, s)
		if s.ctl, err = sess.Controller(); err != nil {
			return err
		}
		for pid, book := range s.exec.Log().Books {
			var idx []int
			for i, r := range book.Records {
				if r.Kind == logging.RecPrelog {
					idx = append(idx, i)
				}
			}
			s.prelogs = append(s.prelogs, idx)
			if len(idx) > 0 {
				s.pids = append(s.pids, pid)
			}
		}
		prog := sess.Program().Artifacts().Prog
		for gid, g := range prog.Globals {
			s.globals[g.Name] = gid
		}
		for gid, v := range replay.InitialGlobals(prog) {
			if !v.IsArray() {
				s.scalars = append(s.scalars, prog.Globals[gid].Name)
			}
		}
		st := sess.Stats()
		w.warm.runs++
		w.warm.steps += st.Counter("exec.steps")
		w.warm.logBytes += st.Counter("exec.log.bytes")
		w.warm.edges += int64(len(s.ctl.Parallel().Edges))
	}
	return nil
}

func (w *flowback) op(c *opCtx) error {
	rng := rand.New(rand.NewSource(opSeed(w.seed, c.i)))
	si := rng.Intn(len(w.sess))
	s := w.sess[si]
	pid := s.pids[rng.Intn(len(s.pids))]
	idx := s.prelogs[pid][rng.Intn(len(s.prelogs[pid]))]
	firstPID, firstIdx := pid, idx
	emus := s.ctl.Emulations()
	var (
		visits [walkSteps]fbVisit
		graphs [walkSteps]*dynpdg.Graph
		frags  [walkSteps]string
		nodes  int
		misses [][2]int
	)
	for step := 0; step < walkSteps; step++ {
		c.begin("controller", "controller.graph")
		g, err := s.ctl.Graph(pid, idx)
		c.end()
		if err != nil {
			return err
		}
		if e := s.ctl.Emulations(); e != emus {
			// A miss: the span holds emulation and dynpdg.Build; the
			// emulation share is moved out by the program's own timer.
			emus = e
			c.rec.relabel("dynpdg")
			misses = append(misses, [2]int{pid, idx})
		}
		c.begin("controller", "controller.render")
		frag := controller.RenderFragment(g, g.LastNode().ID, walkDepth)
		c.end()
		visits[step] = fbVisit{Op: int64(c.i), S: int32(si), PID: int32(pid), Idx: int32(idx)}
		graphs[step], frags[step] = g, frag
		nodes += len(g.Nodes)

		moved := false
		if reads := s.preReads(g); len(reads) > 0 {
			gid := reads[rng.Intn(len(reads))]
			c.begin("controller", "controller.resolve")
			ref := s.ctl.ResolveInitial(pid, idx, gid)
			c.end()
			if ref != nil && ref.PrelogIdx >= 0 {
				pid, idx, moved = ref.PID, ref.PrelogIdx, true
			}
		}
		if !moved {
			idx = s.prevInterval(pid, idx)
		}
	}
	c.begin("replay", "replay.replayto")
	snap, err := s.sess.ReplayTo(firstPID, firstIdx)
	c.end()
	if err != nil {
		return err
	}
	global, value := s.identityOverride(firstPID, firstIdx, rng)
	c.begin("replay", "replay.whatif")
	wi, err := s.sess.WhatIf(firstPID, firstIdx, global, value)
	c.end()
	if err != nil {
		return err
	}
	// The override restates the value the interval starts with, so the
	// modified replay must reproduce the original exactly.
	if len(wi.ChangedGlobals) > 0 || fmt.Sprint(wi.Original.Err) != fmt.Sprint(wi.Modified.Err) {
		return fmt.Errorf("%s: what-if restating %s=%d at pid %d interval %d changed globals %v",
			s.name, global, value, firstPID, firstIdx, wi.ChangedGlobals)
	}

	c.after(func() {
		for k, v := range visits {
			g := graphs[k]
			v.Graph, v.Frag = graphKey(g), hashOf(frags[k])
			if err := checkFragment(frags[k], g, g.LastNode().ID, walkDepth); err != nil {
				v.FragErr = err.Error()
			}
			w.visits.add(v)
		}
		w.replays.add(fbReplay{Op: int64(c.i), S: int32(si), PID: int32(firstPID), Idx: int32(firstIdx), Snap: hashOf(fmt.Sprint(snap.Globals))})
		if c.i < w.warmups() {
			w.warm.graphs += walkSteps
			w.warm.nodes += int64(nodes)
			w.warm.emulations += int64(len(misses))
		}
	})
	if c.traced() {
		c.after(func() { w.traceAfter(c, s, misses) })
	}
	return nil
}

// identityOverride picks the what-if target: a scalar global and the
// value the interval starts with (the prelog's, for a global the interval
// uses, else the program's initial value, which the replay starts from).
// A what-if that changes control flow can replay without bound, so the
// benchmark's what-if restates the state instead of changing it.
func (s *fbSession) identityOverride(pid, idx int, rng *rand.Rand) (string, int64) {
	prog := s.sess.Program().Artifacts().Prog
	pre := s.exec.Log().Books[pid].Records[idx]
	name := s.scalars[rng.Intn(len(s.scalars))]
	gid := s.globals[name]
	if v, ok := pre.Globals.Get(gid); ok {
		return name, v.Int
	}
	return name, replay.InitialGlobals(prog)[gid].Int
}

// graphKey hashes a dynamic graph's content: its nodes in order and its
// edges as a multiset, a sum of per-edge hashes. Edge order is left out
// because dynpdg.Build adds a statement's data edges in map order, so it
// varies between builds.
func graphKey(g *dynpdg.Graph) uint64 {
	h := mix(uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		for _, v := range [...]uint64{uint64(n.ID), uint64(n.Kind), uint64(n.Stmt), hashOf(n.Label),
			uint64(n.Value), uint64(n.Var)} {
			h = mix(h ^ v)
		}
		if n.HasValue {
			h = mix(h ^ 1)
		}
	}
	var edges uint64
	for _, e := range g.Edges {
		edges += mix(mix(mix(mix(uint64(e.Kind))^uint64(e.From))^uint64(e.To)) ^ uint64(e.Var))
	}
	return mix(h ^ edges ^ uint64(len(g.Edges)))
}

// mix is splitmix64's finalizer.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// preReads lists the shared globals the interval read as @pre initial
// nodes, in node order.
func (s *fbSession) preReads(g *dynpdg.Graph) []int {
	var out []int
	for _, n := range g.Nodes {
		if n.Kind != dynpdg.NodeInitial {
			continue
		}
		if name, ok := strings.CutSuffix(n.Label, "@pre"); ok {
			if gid, ok := s.globals[name]; ok {
				out = append(out, gid)
			}
		}
	}
	return out
}

// prevInterval is the interval before idx in pid's book, wrapping to the
// last one.
func (s *fbSession) prevInterval(pid, idx int) int {
	ps := s.prelogs[pid]
	k := sort.SearchInts(ps, idx)
	if k == 0 {
		return ps[len(ps)-1]
	}
	return ps[k-1]
}

// traceAfter reads the op's counter deltas (moving the emulation time
// inside Controller.Graph misses from dynpdg to emulation) and probes
// dynpdg.Build on each missed interval's trace, emulated again by an
// independent emulator so the controller's cache order is untouched.
func (w *flowback) traceAfter(c *opCtx, s *fbSession, misses [][2]int) {
	cur := s.sess.Stats()
	d := delta(cur, s.last)
	s.last = cur
	w.t.add(d)
	c.rec.move(c.i, "dynpdg", "emulation", time.Duration(d.Timer("debug.emulate").TotalNS))
	w.t.replays++
	art := s.sess.Program().Artifacts()
	for _, m := range misses {
		book := s.exec.Log().Books[m[0]]
		res, err := emulation.New(art.Prog, book).Emulate(m[1])
		if err != nil {
			continue
		}
		fn := intervalFunc(s, m[0], m[1])
		var g *dynpdg.Graph
		c.probe("dynpdg", "dynpdg.build", func() { g = dynpdg.Build(art, res.Trace, fn) })
		w.t.graphs++
		w.t.nodes += len(g.Nodes)
	}
}

// intervalFunc names the function whose e-block the interval instantiates.
func intervalFunc(s *fbSession, pid, idx int) string {
	prog := s.sess.Program().Artifacts().Prog
	rec := s.exec.Log().Books[pid].Records[idx]
	return prog.Funcs[prog.Blocks[rec.Block].FuncIdx].Name
}

// startTrace snapshots every session's counters before the traced phase.
func (w *flowback) startTrace() error {
	for _, s := range w.sess {
		s.last = s.sess.Stats()
	}
	return nil
}

func (w *flowback) repeatCounts() map[string]float64 {
	n := float64(max(1, w.warm.runs))
	return map[string]float64{
		"warmup.log_kib_per_run": w.logKiB(),
		"vm.steps_per_run":       float64(w.warm.steps) / n,
		"race.pairs_per_run":     0,
		"parallel.edges_per_run": float64(w.warm.edges) / n,
		"dynpdg.nodes_per_graph": float64(w.warm.nodes) / float64(max(1, w.warm.graphs)),
		"emulations":             float64(w.warm.emulations),
	}
}

// logKiB covers the set-up sessions' runs, the only logged runs flowback
// performs.
func (w *flowback) logKiB() float64 {
	return float64(w.warm.logBytes) / float64(max(1, w.warm.runs)) / 1024
}

func (w *flowback) layerCounters(ls *layerSplit) map[string]float64 { return w.t.metrics(ls.ops) }

// check holds every visited interval to the generic emulator: the
// controller's (pooled, table-dispatched) emulation must equal
// Emulator.Generic's on every observable, and the graph each walk step
// received must have the content of the one built from the generic trace.
// Each step's fragment must be a rendering of that graph (checkFragment,
// run after the op). Every ReplayTo must equal replay.RestoreAt, the
// uncheckpointed fold.
//
// A fragment that passes checkFragment but differs from the oracle's text
// differs in sibling order only — RenderFragment follows dynpdg's edge
// order, which varies between builds of one graph — so it is counted in
// fragmentOrderDiffs and reported, not failed.
func (w *flowback) check() (int, error) {
	type want struct {
		frag, graph uint64
		err         error
	}
	oracle := map[fbVisit]want{}
	failed := map[int64]bool{} // ops with a mismatch
	err := w.visits.each(func(v fbVisit) {
		k := fbVisit{S: v.S, PID: v.PID, Idx: v.Idx} // the interval, without op and answer
		o, ok := oracle[k]
		if !ok {
			o.frag, o.graph, o.err = w.oracle(int(v.S), int(v.PID), int(v.Idx))
			oracle[k] = o
			if o.err != nil {
				fmt.Fprintf(errOut, "flowback: %s pid %d interval %d: %v\n", w.sess[v.S].name, v.PID, v.Idx, o.err)
			}
		}
		name := w.sess[v.S].name
		switch {
		case o.err != nil:
			failed[v.Op] = true
		case o.graph != v.Graph:
			failed[v.Op] = true
			fmt.Fprintf(errOut, "flowback: %s pid %d interval %d: op %d received a graph that differs from the one built from the generic trace\n", name, v.PID, v.Idx, v.Op)
		case v.FragErr != "":
			failed[v.Op] = true
			fmt.Fprintf(errOut, "flowback: %s pid %d interval %d: op %d rendered a fragment that is not its graph's: %s\n", name, v.PID, v.Idx, v.Op, v.FragErr)
		case o.frag != v.Frag:
			w.fragmentOrderDiffs++
		}
	})
	if err != nil {
		return len(failed), err
	}
	err = w.replays.each(func(r fbReplay) {
		s := w.sess[r.S]
		snap := replay.RestoreAt(s.sess.Program().Artifacts().Prog, s.exec.Log().Books[r.PID], int(r.Idx))
		if hashOf(fmt.Sprint(snap.Globals)) != r.Snap {
			failed[r.Op] = true
			fmt.Fprintf(errOut, "flowback: %s pid %d: ReplayTo(%d) differs from replay.RestoreAt\n", s.name, r.PID, r.Idx)
		}
	})
	if w.fragmentOrderDiffs > 0 {
		fmt.Fprintf(errOut, "flowback: %d rendered fragment(s) differ from the oracle's in edge order only\n", w.fragmentOrderDiffs)
	}
	return len(failed), err
}

// oracle emulates the interval under Emulator.Generic, checks the
// controller's cached emulation and dynamic graph of it against that, and
// returns the hash of the fragment rendered from the generic trace's graph
// and that graph's graphKey.
func (w *flowback) oracle(si, pid, idx int) (frag, graph uint64, err error) {
	s := w.sess[si]
	art := s.sess.Program().Artifacts()
	gen := emulation.New(art.Prog, s.exec.Log().Books[pid])
	gen.Generic = true
	want, err := gen.Emulate(idx)
	if err != nil {
		return 0, 0, err
	}
	g, err := s.ctl.Graph(pid, idx)
	if err != nil {
		return 0, 0, err
	}
	got := s.ctl.Result(pid, idx)
	wantG := dynpdg.Build(art, want.Trace, intervalFunc(s, pid, idx))
	wantKey := graphKey(wantG)
	switch {
	case got == nil:
		return 0, 0, fmt.Errorf("no cached emulation after Graph")
	case got.Trace.String() != want.Trace.String():
		return 0, 0, fmt.Errorf("trace differs from Emulator.Generic")
	case fmt.Sprint(got.Globals) != fmt.Sprint(want.Globals),
		got.RecordsConsumed != want.RecordsConsumed,
		got.Completed != want.Completed,
		fmt.Sprint(got.Err) != fmt.Sprint(want.Err):
		return 0, 0, fmt.Errorf("emulation result differs from Emulator.Generic")
	case graphKey(g) != wantKey:
		return 0, 0, fmt.Errorf("dynamic graph differs from the one built from the generic trace")
	}
	return hashOf(controller.RenderFragment(wantG, wantG.LastNode().ID, walkDepth)), wantKey, nil
}

func (w *flowback) close() {
	for _, s := range w.sess {
		s.sess.Close()
	}
	w.visits.close()
	w.replays.close()
}

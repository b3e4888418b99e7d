// Package controller implements the PPD Controller (§3.2.3): the debugging
// phase's orchestrator. It owns the preparatory-phase artifacts and the
// execution-phase logs, and answers flowback queries by locating the log
// interval that covers the requested events, directing the emulation
// package to regenerate that interval's traces, and building or extending
// dynamic program dependence graphs — the paper's incremental tracing.
//
// Cross-process queries (§5.6, §6.3) go through the parallel dynamic graph:
// a shared-variable value that flowed into an interval from outside is
// resolved to the last ordered writer edge in another process, whose own
// interval can then be emulated and grafted into the user's view.
package controller

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/dynpdg"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/vm"
)

// DefaultCacheBound is the default LRU capacity of the per-interval
// graph/result cache: enough that an interactive session never thrashes,
// small enough that a sweep across thousands of intervals cannot hold
// every full trace alive.
const DefaultCacheBound = 128

// Controller is the debugging-phase coordinator. All query methods are
// safe for concurrent use: concurrent queries share the interval cache and
// the replay-context pool.
type Controller struct {
	Art *compile.Artifacts
	Log *logging.ProgramLog

	// Failure is the error that halted execution, if any.
	Failure *vm.RuntimeError

	// Deadlock reports whether execution ended blocked.
	Deadlock bool

	emus []*emulation.Emulator
	// epool is the replay-context pool shared by every per-process
	// emulator, bounded by the CPU count so concurrent sessions cannot
	// hoard a VM per in-flight query.
	epool *emulation.Pool

	// Observability (nil / no-op when disabled). The counters are resolved
	// once at construction so query paths never do name lookups.
	obs       *obs.Sink
	cHits     *obs.Counter
	cMisses   *obs.Counter
	cEvicts   *obs.Counter
	cCkHits   *obs.Counter
	cCkStores *obs.Counter
	tEmu      *obs.Timer

	// Checkpointed state restoration (ReplayTo): every ckEvery-th record
	// boundary's fold state is snapshotted per process, bounding a later
	// restore to folding at most ckEvery records past the nearest
	// checkpoint instead of the whole run prefix.
	ckEvery int
	ckMu    sync.Mutex
	ckpts   [][]ckpt

	// mu guards cache. Emulation itself runs outside the lock so
	// concurrent misses on different intervals proceed in parallel.
	mu sync.Mutex
	// cache memoizes (pid, prelogIdx) → (dynamic graph, emulation result)
	// under an LRU bound: the log is immutable post-run, so entries never
	// invalidate, only age out.
	cache *intervalLRU

	// gmu guards the parallel graph, built on first need, and races, the
	// memoized Races(): the log never changes, so the graph is built and
	// the detector runs at most once per controller.
	gmu       sync.Mutex
	pgraph    *parallel.Graph
	races     []*race.Race
	racesDone bool
}

// Config tunes a controller. The zero value is a clean-exit execution,
// DefaultCacheBound, no observation.
type Config struct {
	// Failure is the runtime error that halted execution, if any.
	Failure *vm.RuntimeError
	// Deadlock reports whether execution ended with blocked processes.
	Deadlock bool
	// CacheBound caps the interval LRU: 0 means DefaultCacheBound, < 0
	// removes the bound, > 0 is the bound itself.
	CacheBound int
	// Obs receives debugging-phase metrics (debug.*, race.*).
	// nil disables observation at the cost of one nil check per query.
	Obs *obs.Sink
	// CheckpointEvery is the record spacing K between ReplayTo state
	// checkpoints: 0 means DefaultCheckpointEvery, < 0 disables
	// checkpointing (every restore folds from the run's start). Smaller K
	// trades memory (more snapshots) for a tighter O(K) restore bound.
	CheckpointEvery int
}

// New builds a controller from the compiled artifacts and an execution's
// logs; cfg says how the execution ended and tunes the debugging phase.
// It builds no graph: the parallel dynamic graph is built on first need
// (Parallel, Races, ResolveInitial, DeadlockReport), and each interval's
// dynamic graph on its first query.
func New(art *compile.Artifacts, pl *logging.ProgramLog, cfg Config) *Controller {
	bound := cfg.CacheBound
	if bound == 0 {
		bound = DefaultCacheBound
	}
	ckEvery := cfg.CheckpointEvery
	if ckEvery == 0 {
		ckEvery = DefaultCheckpointEvery
	}
	c := &Controller{
		Art:      art,
		Log:      pl,
		Failure:  cfg.Failure,
		Deadlock: cfg.Deadlock,
		cache:    newIntervalLRU(bound),
		ckEvery:  ckEvery,
		ckpts:    make([][]ckpt, len(pl.Books)),
	}
	if cfg.Obs != nil {
		c.obs = cfg.Obs
		c.cHits = cfg.Obs.Counter("debug.cache.hits")
		c.cMisses = cfg.Obs.Counter("debug.cache.misses")
		c.cEvicts = cfg.Obs.Counter("debug.cache.evictions")
		c.cCkHits = cfg.Obs.Counter("debug.emu.ckpt.hits")
		c.cCkStores = cfg.Obs.Counter("debug.emu.ckpt.stores")
		c.tEmu = cfg.Obs.Timer("debug.emulate")
	}
	sc := c.obs.Scope("debug.build")
	// One replay-context pool for every emulator, sized to the CPU count:
	// concurrent queries' emulations each get a context, but an idle
	// controller retains at most this many pooled VMs.
	c.epool = emulation.NewPool(art.Prog, max(2, runtime.GOMAXPROCS(0)), cfg.Obs)
	c.emus = make([]*emulation.Emulator, len(pl.Books))
	for pid, book := range pl.Books {
		c.emus[pid] = emulation.NewWithPool(art.Prog, book, c.epool)
	}
	sc.End()
	return c
}

// DropCache empties the interval cache, releasing every cached emulation
// trace and dynamic graph, and returns the number of entries released.
// The releases are reported as debug.cache.evictions. Session teardown
// (Close, the serving daemon's TTL eviction) uses this to free the
// debugging phase's memory without discarding the controller itself:
// later queries still work, they just re-emulate.
func (c *Controller) DropCache() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.cache.drop()
	c.cEvicts.Add(int64(n))
	return n
}

// Emulations returns the total number of VM re-executions performed across
// all processes — the observable that proves cache hits skip the VM.
func (c *Controller) Emulations() int64 {
	var n int64
	for _, em := range c.emus {
		n += em.Emulations()
	}
	return n
}

// NumProcs returns the number of processes in the execution.
func (c *Controller) NumProcs() int { return c.Log.NumProcs() }

// Parallel returns the parallel dynamic graph, building it on the first
// call that needs it (the "debug.graph" scope).
func (c *Controller) Parallel() *parallel.Graph {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	return c.parallelLocked()
}

// parallelLocked is Parallel with gmu held.
func (c *Controller) parallelLocked() *parallel.Graph {
	if c.pgraph == nil {
		sc := c.obs.Scope("debug.graph")
		c.pgraph = parallel.Build(c.Log, len(c.Art.Prog.Globals))
		c.pgraph.VarNames = c.varNames()
		sc.End()
	}
	return c.pgraph
}

// varNames names each shared variable by GlobalID, for race reports.
func (c *Controller) varNames() []string {
	names := make([]string, len(c.Art.Prog.Globals))
	for gid, def := range c.Art.Prog.Globals {
		names[gid] = def.Name
	}
	return names
}

// Emulator returns the per-process emulator.
func (c *Controller) Emulator(pid int) *emulation.Emulator { return c.emus[pid] }

// Races runs the race detector over the execution (§6.4) and memoizes
// the result: the log is immutable post-run, so the detector runs at most
// once per controller, on the first call — a session that never asks for
// races (flowback) never pays for detection. The detector replays the
// parallel graph's generation order (race.Detect), building the graph
// first if no query has; the race set is identical to race.Naive's.
//
// The detector is filtered by the static conflict matrix of the
// artifacts' one vet result (Artifacts.Vet: persisted, or computed once
// from the compile's facts): variables no pair of processes can
// statically conflict on never enter the detector's index.
// The filter cannot change the result — the matrix over-approximates
// every dynamic conflict — it only removes work.
func (c *Controller) Races() []*race.Race {
	c.gmu.Lock()
	defer c.gmu.Unlock()
	if !c.racesDone {
		o := race.Opts{Mask: c.Art.Vet(c.obs).Conflicts.Mask(), Sink: c.obs}
		c.races = race.Detect(c.parallelLocked(), o)
		c.racesDone = true
	}
	return c.races
}

// DeadlockReport analyzes blocked processes (§6's deadlock-cause help).
func (c *Controller) DeadlockReport() string {
	info := c.Parallel().AnalyzeDeadlock()
	return info.Report(
		func(gid int) string {
			if gid >= 0 && gid < len(c.Art.Prog.Globals) {
				return c.Art.Prog.Globals[gid].Name
			}
			return fmt.Sprintf("global%d", gid)
		},
		func(id ast.StmtID) string {
			if si := c.Art.DB.Stmt(id); si != nil {
				return fmt.Sprintf("%s line %d: %s", si.Func, si.Pos.Line, si.Text)
			}
			return fmt.Sprintf("s%d", id)
		})
}

// RaceReport renders the race list with variable names.
func (c *Controller) RaceReport() string {
	return race.Report(c.Races(), func(gid int) string {
		return c.Art.Prog.Globals[gid].Name
	})
}

// FocusInterval selects the interval a debugging session starts from for a
// process: the last open prelog when the process halted mid-interval,
// otherwise the last interval executed.
func (c *Controller) FocusInterval(pid int) (int, error) {
	if pid < 0 || pid >= len(c.emus) {
		return -1, fmt.Errorf("controller: no process %d", pid)
	}
	em := c.emus[pid]
	if idx := em.FindLastOpenPrelog(); idx >= 0 {
		return idx, nil
	}
	// Every interval completed: focus on the outermost one (the process's
	// entry function), which contains the last statement executed.
	if idx := em.FirstPrelog(); idx >= 0 {
		return idx, nil
	}
	return -1, fmt.Errorf("controller: process %d logged no intervals", pid)
}

// Graph returns (building and caching on demand) the dynamic graph of the
// interval whose prelog is at record index prelogIdx of process pid. This
// is the incremental step: only the requested interval is ever emulated,
// and a repeated query is served from the LRU cache without touching the
// VM at all.
func (c *Controller) Graph(pid, prelogIdx int) (*dynpdg.Graph, error) {
	ent, err := c.interval(pid, prelogIdx)
	if err != nil {
		return nil, err
	}
	return ent.graph, nil
}

// interval is the memoized emulate-and-build step behind Graph and
// Result. Emulation runs outside the lock so cache misses on
// different intervals overlap; if two goroutines race on the same miss,
// the first insertion wins and both observe the same entry (pointer
// stability for cached graphs).
func (c *Controller) interval(pid, prelogIdx int) (*intervalEntry, error) {
	if pid < 0 || pid >= len(c.emus) {
		return nil, fmt.Errorf("controller: no process %d", pid)
	}
	key := [2]int{pid, prelogIdx}
	c.mu.Lock()
	if ent, ok := c.cache.get(key); ok {
		c.mu.Unlock()
		c.cHits.Inc()
		return ent, nil
	}
	c.mu.Unlock()
	c.cMisses.Inc()

	sw := c.tEmu.Start()
	res, err := c.emus[pid].Emulate(prelogIdx)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	rec := c.Log.Books[pid].Records[prelogIdx]
	fn := c.Art.Prog.Funcs[c.Art.Prog.Blocks[rec.Block].FuncIdx]
	ent := &intervalEntry{graph: dynpdg.Build(c.Art, res.Trace, fn.Name), res: res}

	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.cache.get(key); ok {
		return prev, nil // lost a concurrent miss: keep the first entry
	}
	c.cEvicts.Add(int64(c.cache.add(key, ent)))
	return ent, nil
}

// Result returns the cached emulation result for an interval (after Graph).
// It returns nil when the interval was never emulated or its entry has
// aged out of the LRU bound.
func (c *Controller) Result(pid, prelogIdx int) *emulation.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.cache.get([2]int{pid, prelogIdx}); ok {
		return ent.res
	}
	return nil
}

// FocusNode picks the node a debugging session roots at: the last instance
// of the failing statement when the process failed, otherwise the last
// event of the interval.
func (c *Controller) FocusNode(g *dynpdg.Graph, pid int) *dynpdg.Node {
	if c.Failure != nil && c.Failure.PID == pid {
		// Prefer the statement's own singular node over the %n and
		// sub-graph nodes that share its statement ID.
		var singular, other *dynpdg.Node
		for _, n := range g.NodesForStmt(c.Failure.Stmt) {
			switch n.Kind {
			case dynpdg.NodeSingular:
				singular = n
			case dynpdg.NodeSubGraph, dynpdg.NodeSync:
				other = n
			}
		}
		if singular != nil {
			return singular
		}
		if other != nil {
			return other
		}
	}
	return g.LastNode()
}

// CurrentGraph builds the graph for the focus interval of pid.
func (c *Controller) CurrentGraph(pid int) (*dynpdg.Graph, int, error) {
	idx, err := c.FocusInterval(pid)
	if err != nil {
		return nil, -1, err
	}
	g, err := c.Graph(pid, idx)
	return g, idx, err
}

// IntervalContaining returns the record index of the innermost prelog whose
// interval covers record index ri in pid's book, or -1.
func (c *Controller) IntervalContaining(pid, ri int) int {
	var stack []int
	innermost := -1
	for i, r := range c.Log.Books[pid].Records {
		if i > ri {
			break
		}
		switch r.Kind {
		case logging.RecPrelog:
			stack = append(stack, i)
		case logging.RecPostlog:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
		if i == ri && len(stack) > 0 {
			innermost = stack[len(stack)-1]
		}
	}
	if innermost == -1 && len(stack) > 0 {
		innermost = stack[len(stack)-1]
	}
	return innermost
}

// CrossRef is the answer to a cross-process flowback query: the writer
// process, its internal edge, and the interval to emulate for detail.
type CrossRef struct {
	PID       int
	Edge      *parallel.InternalEdge
	PrelogIdx int // interval containing the write; -1 if outside any
	Racy      bool
	// RacyWith lists other unordered writer edges (the value's provenance
	// is ambiguous — a race, §5.5/§6.3).
	RacyWith []*parallel.InternalEdge
}

// ResolveInitial resolves an @pre initial node for shared global gid in the
// interval (pid, prelogIdx): which other process's edge supplied the value
// (§6.3's cross-process data dependence). Returns nil when the value came
// from initialization (no prior writer).
func (c *Controller) ResolveInitial(pid, prelogIdx, gid int) *CrossRef {
	// Find this interval's record span (cached emulation result if the
	// interval was already emulated; the whole book otherwise).
	res := c.Result(pid, prelogIdx)
	span := len(c.Log.Books[pid].Records)
	if res != nil {
		span = prelogIdx + res.RecordsConsumed
	}
	// The reading edges of this process overlapping the interval.
	pg := c.Parallel()
	var readEdge *parallel.InternalEdge
	for _, e := range pg.EdgesOf(pid) {
		if e.EndRec < prelogIdx || e.StartRec > span {
			continue
		}
		if e.Reads.Has(gid) {
			readEdge = e
			break
		}
	}
	if readEdge == nil {
		// The read may predate any sync op; use the process's first edge
		// overlapping the interval.
		for _, e := range pg.EdgesOf(pid) {
			if e.EndRec >= prelogIdx && e.StartRec <= span {
				readEdge = e
				break
			}
		}
	}
	if readEdge == nil {
		return nil
	}
	writer := pg.LastWriterBefore(readEdge, gid)

	// Collect unordered (racy) writers too.
	var racy []*parallel.InternalEdge
	for _, cand := range pg.Edges {
		if cand.PID == pid || !cand.Writes.Has(gid) {
			continue
		}
		if pg.Simultaneous(cand, readEdge) {
			racy = append(racy, cand)
		}
	}

	if writer == nil && len(racy) == 0 {
		return nil
	}
	ref := &CrossRef{Racy: len(racy) > 0, RacyWith: racy}
	if writer != nil {
		ref.PID = writer.PID
		ref.Edge = writer
		ref.PrelogIdx = c.IntervalContaining(writer.PID, writer.EndRec)
	} else {
		ref.PID = racy[0].PID
		ref.Edge = racy[0]
		ref.PrelogIdx = c.IntervalContaining(racy[0].PID, racy[0].EndRec)
	}
	return ref
}

// Flowback walks backward from a node through data/control/sync edges up to
// the given depth, returning the reachable slice of the graph in
// breadth-first order — the fragment the debugger presents (§3.2.3's
// "portion of the dynamic graph").
func Flowback(g *dynpdg.Graph, from dynpdg.NodeID, depth int) []*dynpdg.Node {
	type item struct {
		id dynpdg.NodeID
		d  int
	}
	seen := map[dynpdg.NodeID]bool{from: true}
	queue := []item{{from, 0}}
	var out []*dynpdg.Node
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		out = append(out, g.Nodes[it.id])
		if it.d == depth {
			continue
		}
		var deps []dynpdg.NodeID
		for _, e := range g.Incoming(it.id) {
			if e.Kind == dynpdg.EdgeFlow {
				continue
			}
			deps = append(deps, e.From)
		}
		sort.Slice(deps, func(i, j int) bool { return deps[i] < deps[j] })
		for _, d := range deps {
			if !seen[d] {
				seen[d] = true
				queue = append(queue, item{d, it.d + 1})
			}
		}
	}
	return out
}

// RenderFragment prints a flowback fragment as an indented dependence tree
// rooted at the node, the textual analogue of the paper's inverted-tree
// display.
func RenderFragment(g *dynpdg.Graph, root dynpdg.NodeID, depth int) string {
	f := fragment{
		g:     g,
		depth: depth,
		seen:  make([]uint64, (len(g.Nodes)+63)/64),
		buf:   make([]byte, 0, 512),
	}
	f.walk(root, 0, "")
	return string(f.buf)
}

// fragment is RenderFragment's walk: one line per visit, and each node's
// non-flow dependences expanded below its first visit, down to depth.
type fragment struct {
	g     *dynpdg.Graph
	depth int
	seen  []uint64 // bit per node: expanded
	buf   []byte
}

func (f *fragment) walk(id dynpdg.NodeID, d int, via string) {
	n := f.g.Nodes[id]
	for range d {
		f.buf = append(f.buf, "  "...)
	}
	if via != "" {
		f.buf = append(append(append(f.buf, "<-"...), via...), "- "...)
	}
	f.buf = strconv.AppendInt(append(f.buf, 'n'), int64(n.ID), 10)
	f.buf = append(append(append(f.buf, " ["...), n.Label...), ']')
	if n.Stmt != ast.NoStmt {
		f.buf = strconv.AppendInt(append(f.buf, " s"...), int64(n.Stmt), 10)
	}
	if n.HasValue {
		f.buf = strconv.AppendInt(append(f.buf, " = "...), n.Value, 10)
	}
	f.buf = append(f.buf, '\n')
	word, bit := id/64, uint64(1)<<(id%64)
	if d == f.depth || f.seen[word]&bit != 0 {
		return
	}
	f.seen[word] |= bit
	for _, e := range f.g.Incoming(id) {
		if e.Kind == dynpdg.EdgeFlow {
			continue
		}
		f.walk(e.From, d+1, e.Kind.String())
	}
}

// Summary describes the halted execution for the debugger's banner.
func (c *Controller) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "execution: %d process(es), %d log record(s)\n",
		c.NumProcs(), totalRecords(c.Log))
	switch {
	case c.Failure != nil:
		st := c.Art.DB.Stmt(c.Failure.Stmt)
		loc := "?"
		if st != nil {
			loc = fmt.Sprintf("%s line %d: %s", st.Func, st.Pos.Line, st.Text)
		}
		fmt.Fprintf(&sb, "halted: process %d failed at s%d (%s): %s\n",
			c.Failure.PID, c.Failure.Stmt, loc, c.Failure.Msg)
	case c.Deadlock:
		sb.WriteString("halted: deadlock\n")
	default:
		sb.WriteString("completed normally\n")
	}
	return sb.String()
}

func totalRecords(pl *logging.ProgramLog) int {
	n := 0
	for _, b := range pl.Books {
		n += b.Len()
	}
	return n
}

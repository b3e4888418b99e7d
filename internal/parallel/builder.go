package parallel

import (
	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/logging"
)

// FeedRecord is the streamable projection of one log record: the fields
// the graph builder needs, detached from the logging arena so the record
// itself may be recycled the moment the tap returns (see
// logging.Book.SetTap). RecIdx is the record's index within its process's
// book, counting every record kind — the builder uses it for the
// StartRec/EndRec interval bounds, so callers must number prelog records
// too, not just the sync-relevant kinds they forward.
type FeedRecord struct {
	PID     int
	RecIdx  int
	Kind    logging.Kind
	Op      logging.SyncOp
	Obj     int
	Stmt    ast.StmtID
	Gsn     uint64
	FromGsn uint64
	Reads   []int
	Writes  []int
}

// Observer receives the builder's output as a stream, in causal
// (clock-assignment) order: one callback per synchronization node, fired
// the moment the node's vector clock is final. Under a Builder, ev and
// edge carry process-local IDs (ev.ID == ev.Idx, edge.ID == the process's
// edge index), renumbered only if Finish materializes the graph; under
// BuildObserved they carry their final global IDs. start is the edge's
// start node (nil for a process's first edge). The callee must not retain
// FeedRecord-derived slices beyond the call; the Event/InternalEdge
// pointers are stable and may be kept.
type Observer interface {
	OnSync(ev *Event, edge *InternalEdge, start *Event)
}

// pendingEv is a synchronization node whose vector clock is not yet
// computable: its in-process predecessor or its causal source (From) is
// still missing. Nodes arrive in process order, so each process's pending
// nodes form a FIFO and only the head can ever become assignable.
type pendingEv struct {
	ev   *Event
	prev *Event // in-process predecessor (nil for the first node)
	edge *InternalEdge

	// fromGsn is the unresolved causal source (0 = resolved or absent);
	// fromEv is the resolved source node once known.
	fromGsn uint64
	fromEv  *Event
}

// builderProc is one process's build state.
type builderProc struct {
	nodes    []*pendingEv // retained nodes (retain mode only)
	nEvents  int
	nEdges   int
	last     *Event // most recently created node (clocked or not)
	startRec int    // record index where the open internal edge began

	// unclocked[head:] is the FIFO of nodes waiting for a clock; the
	// backing array is reused once it drains.
	unclocked []*pendingEv
	head      int
	queued    bool // already on the builder's drain queue
}

// pending reports whether the process has a node waiting for a clock.
func (p *builderProc) pending() bool { return p.head < len(p.unclocked) }

// pop drops the FIFO's head.
func (p *builderProc) pop() {
	p.unclocked[p.head] = nil
	p.head++
	if p.head == len(p.unclocked) {
		p.unclocked, p.head = p.unclocked[:0], 0
	}
}

// Builder constructs the parallel dynamic graph incrementally from a
// stream of per-process record batches — the §6.1 build refactored into
// an online event-stream module. Two modes:
//
//   - Retain mode (NewBuilder): every node and edge is kept and Finish
//     stitches them into a *Graph identical to Build's over the same
//     log. Build itself counts the log first and carves every node from
//     slabs (build.go); it shares the clocking below.
//   - Stream mode (NewStreamBuilder): nodes and edges are handed to an
//     Observer as soon as their vector clocks are final and are not
//     retained; memory is bounded by the synchronization frontier, not
//     the run length. Stream mode requires the feed to be in generation
//     order (the order records were appended across all books — exactly
//     what a logging tap observes); the only forward reference the VM
//     ever emits is a spawned process's start node arriving one record
//     before its OpSpawn source, which the builder holds briefly.
//
// Clocks are assigned by the same recurrence the batch pass used
// (clock = join(predecessor, source) + own tick), so the incremental
// fixpoint is the batch fixpoint: feeding the same records in any
// order that respects per-process sequencing yields identical clocks.
type Builder struct {
	nShared int
	retain  bool
	obs     Observer

	procs []*builderProc
	queue []*builderProc // procs with potentially-assignable pending heads

	// byGsn maps a source event's gsn to its node. Retain mode keeps every
	// gsn. Stream mode keeps only gsns a future record can still reference —
	// see retireSources for the per-op consumption rules.
	byGsn map[uint64]*Event

	// waiting holds nodes whose FromGsn has no source yet, keyed by that
	// gsn. In stream mode only a spawn's start node ever waits, and only
	// for one record.
	waiting map[uint64][]*pendingEv

	// clockWaiters maps an unclocked source node to processes whose
	// pending head needs its clock.
	clockWaiters map[*Event][]*builderProc

	// semPending tracks, per semaphore object, the byGsn entry of its
	// remembered 0→1 V (stream mode): the VM clears or consumes it at the
	// next operation on the same semaphore, so the previous entry dies
	// when a new P or V on the object arrives.
	semPending map[int]uint64

	// ephemeral is the byGsn entry (a recv's gsn) that only the
	// immediately following record can reference (the unblock edge the VM
	// appends in the same step); it is dropped unconsumed otherwise.
	ephemeral uint64

	clockLen int // preallocated clock length (0 = grow as processes appear)
	finished bool

	// clocks is Build's clock slab, carved in clocking order (nil: each
	// clock is its own allocation). order records the nodes in the order
	// their clocks became final (Build only: its feed is generation order).
	clocks []int
	order  []*Event
}

// NewBuilder returns a retain-mode builder: Feed it per-process record
// batches (whole books in pid order, or any interleaving that preserves
// per-process order), then Finish to materialize the graph.
func NewBuilder(nShared int) *Builder {
	return &Builder{
		nShared: nShared,
		retain:  true,
		byGsn:   make(map[uint64]*Event),
		waiting: make(map[uint64][]*pendingEv),
	}
}

// NewStreamBuilder returns a stream-mode builder reporting to obs; see
// the Builder doc for the feed-order requirement and memory bound.
func NewStreamBuilder(nShared int, obs Observer) *Builder {
	return &Builder{
		nShared:    nShared,
		byGsn:      make(map[uint64]*Event),
		waiting:    make(map[uint64][]*pendingEv),
		semPending: make(map[int]uint64),
		obs:        obs,
	}
}

// SetNumProcs hints the final process count so vector clocks can be
// allocated at full length up front (a caller holding the whole log
// knows it; a live stream does not and lets clocks grow).
func (b *Builder) SetNumProcs(n int) {
	if n > b.clockLen {
		b.clockLen = n
	}
}

// proc returns (creating if needed) the state for pid.
func (b *Builder) proc(pid int) *builderProc {
	for pid >= len(b.procs) {
		b.procs = append(b.procs, &builderProc{})
	}
	return b.procs[pid]
}

// Feed consumes one batch of records. Batch boundaries are free: the
// builder's output is determined by the record sequence alone.
func (b *Builder) Feed(batch []FeedRecord) {
	for i := range batch {
		b.add(&batch[i])
	}
}

// add ingests one record: sync-relevant kinds become nodes and edges,
// everything else only advances the record index (via RecIdx, which the
// caller carries for every record).
func (b *Builder) add(fr *FeedRecord) {
	switch fr.Kind {
	case logging.RecSync, logging.RecStart, logging.RecExit:
	default:
		return
	}
	p := b.proc(fr.PID)
	ev := &Event{
		ID:   EventID(p.nEvents),
		PID:  fr.PID,
		Idx:  p.nEvents,
		Op:   fr.Op,
		Kind: fr.Kind,
		Obj:  fr.Obj,
		Stmt: fr.Stmt,
		Gsn:  fr.Gsn,
		From: -1,
	}
	var prevEnd EventID = -1
	if p.last != nil {
		prevEnd = p.last.ID
	}
	edge := &InternalEdge{
		ID:       p.nEdges,
		PID:      fr.PID,
		Start:    prevEnd,
		End:      ev.ID,
		Reads:    bitset.FromSlice(b.nShared, fr.Reads),
		Writes:   bitset.FromSlice(b.nShared, fr.Writes),
		StartRec: p.startRec,
		EndRec:   fr.RecIdx,
	}
	pe := &pendingEv{ev: ev, prev: p.last, edge: edge}
	p.nEvents++
	p.nEdges++
	p.startRec = fr.RecIdx + 1
	p.last = ev
	if b.retain {
		p.nodes = append(p.nodes, pe)
	}

	// In stream mode, the previous recv-gsn entry is only referenceable by
	// this very record (the unblock the VM appends in the same step).
	eph := b.ephemeral
	b.ephemeral = 0

	// Register this node as a causal source.
	if fr.Gsn != 0 {
		if ws, ok := b.waiting[fr.Gsn]; ok {
			// Forward reference (a spawn's start node arrived first):
			// resolve it now; the gsn is consumed and never enters byGsn.
			delete(b.waiting, fr.Gsn)
			for _, w := range ws {
				w.fromGsn = 0
				w.fromEv = ev
				b.enqueue(b.procs[w.ev.PID])
			}
			if b.retain {
				b.byGsn[fr.Gsn] = ev
			}
		} else if b.retain || sourceOp(fr) {
			b.byGsn[fr.Gsn] = ev
		}
	}

	// Resolve this node's causal source.
	if fr.FromGsn != 0 {
		if src, ok := b.byGsn[fr.FromGsn]; ok {
			pe.fromEv = src
			if !b.retain {
				delete(b.byGsn, fr.FromGsn)
				if fr.FromGsn == eph {
					eph = 0
				}
			}
		} else {
			pe.fromGsn = fr.FromGsn
			b.waiting[fr.FromGsn] = append(b.waiting[fr.FromGsn], pe)
		}
	}

	if !b.retain {
		b.retireSources(fr, eph)
	}

	b.push(pe)
}

// push queues pe behind its process's earlier nodes and clocks every
// node that has become assignable.
func (b *Builder) push(pe *pendingEv) {
	p := b.procs[pe.ev.PID]
	p.unclocked = append(p.unclocked, pe)
	b.enqueue(p)
	b.drain()
}

// sourceOp reports whether a record's gsn can appear as a later record's
// FromGsn (stream mode only inserts those into byGsn): a V (the §6.2.1
// pendingV pairing and the direct handoff), a send (consumed by the
// matching recv), a recv (consumed by the unblock record the VM appends in
// the same step), and a spawn (consumed by the child's start node, which
// in generation order actually precedes it and is handled by the waiting
// map). P and unblock gsns are never referenced.
func sourceOp(fr *FeedRecord) bool {
	if fr.Kind != logging.RecSync {
		return false
	}
	switch fr.Op {
	case logging.OpV, logging.OpSend, logging.OpRecv, logging.OpSpawn:
		return true
	}
	return false
}

// retireSources drops byGsn entries no future record can reference,
// keeping the map bounded by live synchronization state (per-semaphore
// pending Vs, in-flight channel messages) instead of run length. eph is
// the previous record's ephemeral entry if this record did not consume it.
func (b *Builder) retireSources(fr *FeedRecord, eph uint64) {
	if eph != 0 {
		delete(b.byGsn, eph)
	}
	if fr.Kind != logging.RecSync {
		return
	}
	switch fr.Op {
	case logging.OpV:
		// The VM remembers at most one pending V per semaphore; a new V on
		// the same object replaces or clears it.
		if old := b.semPending[fr.Obj]; old != 0 && old != fr.Gsn {
			delete(b.byGsn, old)
		}
		b.semPending[fr.Obj] = fr.Gsn
	case logging.OpP:
		// Any completed P on the object consumed or cleared the pending V.
		if old := b.semPending[fr.Obj]; old != 0 {
			delete(b.byGsn, old)
			delete(b.semPending, fr.Obj)
		}
	case logging.OpRecv, logging.OpSpawn:
		// Referenceable only by the immediately following record (unblock)
		// or an already-arrived start node (spawn, removed on use above).
		if _, ok := b.byGsn[fr.Gsn]; ok {
			b.ephemeral = fr.Gsn
		}
	}
}

// enqueue schedules a process for clock assignment.
func (b *Builder) enqueue(p *builderProc) {
	if !p.queued && p.pending() {
		p.queued = true
		b.queue = append(b.queue, p)
	}
}

// drain assigns clocks to every currently-assignable pending node,
// cascading through processes a fresh clock unblocks.
func (b *Builder) drain() {
	for len(b.queue) > 0 {
		p := b.queue[len(b.queue)-1]
		b.queue = b.queue[:len(b.queue)-1]
		p.queued = false
		for p.pending() {
			pe := p.unclocked[p.head]
			if pe.fromGsn != 0 {
				break // source node not seen yet
			}
			if pe.fromEv != nil && pe.fromEv.Clock == nil {
				// Source seen but not clocked: wake when it is.
				if b.clockWaiters == nil {
					b.clockWaiters = make(map[*Event][]*builderProc)
				}
				b.clockWaiters[pe.fromEv] = append(b.clockWaiters[pe.fromEv], p)
				break
			}
			p.pop()
			b.assign(pe)
		}
	}
}

// assign computes pe's vector clock (the batch recurrence: join of the
// in-process predecessor and the causal source, plus the process's own
// tick) and publishes the node.
func (b *Builder) assign(pe *pendingEv) {
	pid := pe.ev.PID
	n := b.clockLen
	if pid+1 > n {
		n = pid + 1
	}
	if pe.prev != nil && len(pe.prev.Clock) > n {
		n = len(pe.prev.Clock)
	}
	if pe.fromEv != nil && len(pe.fromEv.Clock) > n {
		n = len(pe.fromEv.Clock)
	}
	clock := b.newClock(n)
	if pe.prev != nil {
		copy(clock, pe.prev.Clock)
	}
	if pe.fromEv != nil {
		join(clock, pe.fromEv.Clock)
	}
	clock[pid]++
	b.publish(pe, clock)
	if ws, ok := b.clockWaiters[pe.ev]; ok {
		delete(b.clockWaiters, pe.ev)
		for _, q := range ws {
			b.enqueue(q)
		}
	}
}

// newClock returns a zero clock of length n, carved from the clock slab
// while it lasts.
func (b *Builder) newClock(n int) []int {
	if len(b.clocks) < n {
		return make([]int, n)
	}
	c := b.clocks[:n:n]
	b.clocks = b.clocks[n:]
	return c
}

// publish makes clock pe's final clock: the node joins the recorded
// order and the observer sees it.
func (b *Builder) publish(pe *pendingEv, clock []int) {
	pe.ev.Clock = clock
	if b.order != nil {
		b.order = append(b.order, pe.ev)
	}
	if b.obs != nil {
		b.obs.OnSync(pe.ev, pe.edge, pe.prev)
	}
}

// Counts returns the per-process node and edge counts so far — the
// renumbering base a streaming consumer needs to map process-local IDs to
// the global ID space the batch build would have assigned (global IDs are
// contiguous per process in pid order).
func (b *Builder) Counts() (events, edges []int) {
	events = make([]int, len(b.procs))
	edges = make([]int, len(b.procs))
	for i, p := range b.procs {
		events[i] = p.nEvents
		edges[i] = p.nEdges
	}
	return events, edges
}

// Flush resolves every node still resolvable: FromGsn references with no
// matching source are dropped (exactly as the batch build's pass 2
// silently skipped them), and any nodes still unclocked afterwards sit on
// a causal cycle (corrupt log) and get zero clocks, matching the batch
// fallback. Stream-mode observers see the stragglers now.
func (b *Builder) Flush() {
	for _, p := range b.procs {
		for _, pe := range p.unclocked[p.head:] {
			pe.fromGsn = 0 // unmatched source: no sync edge
		}
		b.enqueue(p)
	}
	b.drain()
	for _, p := range b.procs {
		for _, pe := range p.unclocked[p.head:] {
			b.publish(pe, b.newClock(b.clockLen))
		}
		p.unclocked, p.head = nil, 0
	}
	for k := range b.waiting {
		delete(b.waiting, k)
	}
}

// Finish flushes the builder and materializes the graph (retain mode
// only): process-local IDs are renumbered into the contiguous global ID
// space, sync edges are listed in pid-then-record order, and clocks are
// padded to the final process count — the result is field-for-field
// identical to Build over the same records, whatever order respecting
// per-process sequencing they were fed in, except that it records no
// Order: a feed need not be generation order, and the race detector must
// not replay one that is not.
func (b *Builder) Finish(pl *logging.ProgramLog) *Graph {
	if !b.retain {
		panic("parallel: Finish on a stream-mode Builder; use Flush")
	}
	if b.finished {
		panic("parallel: Finish called twice")
	}
	b.finished = true
	b.Flush()

	nProcs := len(b.procs)
	if pl != nil && pl.NumProcs() > nProcs {
		nProcs = pl.NumProcs()
	}
	g := &Graph{
		Log:     pl,
		nProcs:  nProcs,
		nShared: b.nShared,
		procOff: make([]int, nProcs+1),
	}
	for pid := 0; pid < nProcs; pid++ {
		off := len(g.Events)
		if pid < len(b.procs) {
			for _, pe := range b.procs[pid].nodes {
				ev, e := pe.ev, pe.edge
				ev.ID += EventID(off)
				e.ID += off
				if e.Start >= 0 {
					e.Start += EventID(off)
				}
				e.End += EventID(off)
				g.Events = append(g.Events, ev)
				g.Edges = append(g.Edges, e)
			}
		}
		g.procOff[pid+1] = len(g.Events)
	}
	// Sync edges in pid-then-record order, after renumbering so both
	// endpoints carry global IDs.
	for _, p := range b.procs {
		for _, pe := range p.nodes {
			if src := pe.fromEv; src != nil {
				pe.ev.From = src.ID
				g.SyncEdges = append(g.SyncEdges, [2]EventID{src.ID, pe.ev.ID})
			}
		}
	}
	for _, ev := range g.Events {
		if len(ev.Clock) < nProcs {
			c := make([]int, nProcs)
			copy(c, ev.Clock)
			ev.Clock = c
		}
	}
	return g
}

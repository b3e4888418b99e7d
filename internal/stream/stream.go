// Package stream is the online analysis pipeline: it consumes an
// execution's record stream *while the program runs* and performs the
// debugging phase's graph construction and race detection incrementally —
// the event-stream-module architecture DeWiz and MAD argue for, grafted
// onto the paper's §6 machinery.
//
// The pipeline is three stages. The incremental graph builder
// (parallel.NewStreamBuilder) turns the record stream into clocked
// synchronization nodes and internal edges. The frontier detector (this
// package's Pipeline) checks each completed edge against the *unretired*
// edges indexed per shared variable, then retires edges the sliding
// happens-before frontier has passed: once every live process's latest
// event happens-after an edge's end node, no future edge can be
// simultaneous with it (any future edge's start chains through some live
// process's current latest event), so the edge leaves the index and its
// memory — the pipeline's high-water mark is bounded by the frontier
// width, not the run length. The early-abort stage is the caller's: the
// OnRace callback fires the moment a race is classified, and
// ppd.Options.StopAtFirstRace uses it to context-cancel the VM.
//
// Soundness of arrival-time checking: edges are checked when they
// complete, against every unretired edge. A retired edge r cannot race
// with a later-arriving edge e: at r's retirement, e's process either had
// events (its then-latest event L satisfied r.end → L, and e.start is L
// or later in program order, so r → e), or did not exist yet (its start
// chains through a live ancestor's spawn, which happens-after that
// ancestor's then-latest event, hence after r.end). Every cross-process
// conflicting pair is therefore classified exactly once, and the final
// race set equals the batch detector's.
//
// Oracle equivalence: after renumbering the (few) edges retained by
// races into the global ID space — global IDs are contiguous per process
// in pid order, so (PID, local index) order is global order — the
// canonicalized result is byte-identical to the masked race.Detect over the
// batch-built graph of the same records, at any batch size. The golden
// gate TestOnlineRacesByteIdentical and FuzzStreamBatches pin this.
package stream

import (
	"fmt"

	"ppd/internal/bitset"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
)

// Config parameterizes a Pipeline.
type Config struct {
	// NShared is the GlobalID universe size (len(Program.Globals)).
	NShared int

	// Mask is the static conflict mask (analysis.ConflictMatrix.Mask):
	// per-variable buckets outside it are never materialized. nil scans
	// everything. Must match the batch oracle's mask for equivalence.
	Mask *bitset.Set

	// VarNames resolves GlobalIDs to source names in race reports
	// (parallel.Graph.VarNames's counterpart).
	VarNames []string

	// OnRace, when non-nil, fires once per classified race the moment it
	// is found, while the program is still running. It runs on the
	// pipeline's feeding goroutine; implementations should be quick or
	// hand off.
	OnRace func(RaceEvent)

	// Sink receives the pipeline counters (stream.batches,
	// stream.frontier.highwater, stream.events.retired,
	// stream.races.online, stream.pairs, stream.mask.pruned), folded in
	// once at Finish. nil disables observation.
	Sink *obs.Sink
}

// RaceEvent is one race as reported online. It carries process IDs and
// per-process internal-edge indices — identifiers that are stable from the
// moment of detection (global edge IDs only exist after the run ends).
type RaceEvent struct {
	Kind  race.Conflict
	PID1  int // 0-based process ID of the first (canonically ordered) edge
	Edge1 int // index of that edge within its process
	PID2  int
	Edge2 int
	Vars  []int
	Names []string
}

// String renders the event for live monitors.
func (ev RaceEvent) String() string {
	vars := fmt.Sprintf("%v", ev.Vars)
	if len(ev.Names) == len(ev.Vars) && len(ev.Names) > 0 {
		vars = ""
		for i, n := range ev.Names {
			if i > 0 {
				vars += ","
			}
			vars += n
		}
	}
	return fmt.Sprintf("%s race: P%d edge %d vs P%d edge %d on %s",
		ev.Kind, ev.PID1+1, ev.Edge1, ev.PID2+1, ev.Edge2, vars)
}

// Result is the pipeline's final output.
type Result struct {
	// Races is the canonical race set: deduped, renumbered into the
	// global ID space, sorted — byte-identical (via race.Report) to the
	// batch detector over the same records.
	Races []*race.Race

	Batches   int64 // record batches fed
	Events    int64 // synchronization nodes built
	Retired   int64 // edges retired by the frontier before the run ended
	Highwater int64 // max unretired edges at any point (the memory bound)
	Online    int64 // races classified online (pre-dedup count)
	Pairs     int64 // candidate pairs tested
	Pruned    int64 // per-edge variable touches skipped by the mask
}

// edgeRef is one unretired internal edge with its endpoint nodes (the
// clock carriers for the simultaneity test).
type edgeRef struct {
	e          *parallel.InternalEdge
	start, end *parallel.Event // start nil for a process's first edge
}

// pairKey identifies a canonically-oriented cross-process edge pair.
type pairKey struct {
	pid1, id1, pid2, id2 int
}

// Pipeline is the frontier race detector. Not safe for concurrent use:
// Feed and Finish must come from one goroutine (the Tee serializes).
type Pipeline struct {
	cfg Config
	b   *parallel.Builder

	last    []*parallel.Event // latest node per process
	exited  []bool            // process has logged its exit node
	pending [][]*edgeRef      // unretired edges per process, FIFO

	readers [][]*edgeRef // unretired reader edges per shared variable
	writers [][]*edgeRef // unretired writer edges per shared variable

	// seen marks pairs that already produced races, so a pair sharing
	// several variables is classified once (the batch path classifies all
	// three kinds at first contact too, then dedups). Bounded by the race
	// count, not the pair count: ordered pairs never enter.
	seen  map[pairKey]bool
	races []*race.Race

	width    int // unretired edges now
	result   *Result
	counters Result
	finished bool
}

// New returns a pipeline over cfg.
func New(cfg Config) *Pipeline {
	p := &Pipeline{
		cfg:     cfg,
		seen:    make(map[pairKey]bool),
		readers: make([][]*edgeRef, cfg.NShared),
		writers: make([][]*edgeRef, cfg.NShared),
	}
	p.b = parallel.NewStreamBuilder(cfg.NShared, p)
	return p
}

// Feed consumes one batch of records in generation order (see
// parallel.Builder's stream mode). The builder calls back into OnSync for
// every node whose clock becomes final.
func (p *Pipeline) Feed(batch []parallel.FeedRecord) {
	p.counters.Batches++
	p.b.Feed(batch)
}

// OnSync implements parallel.Observer: one completed synchronization node
// and the internal edge it terminates. Order matters: the edge is checked
// against the frontier *before* the node advances it — a frontier advanced
// first could retire edges this edge still races with.
func (p *Pipeline) OnSync(ev *parallel.Event, edge *parallel.InternalEdge, start *parallel.Event) {
	p.counters.Events++
	er := &edgeRef{e: edge, start: start, end: ev}

	// Stage 1: check against the unretired index, mask-pruned.
	edge.Writes.ForEach(func(v int) {
		if p.cfg.Mask != nil && !p.cfg.Mask.Has(v) {
			p.counters.Pruned++
			return
		}
		p.checkAgainst(p.writers[v], er)
		p.checkAgainst(p.readers[v], er)
	})
	edge.Reads.ForEach(func(v int) {
		if p.cfg.Mask != nil && !p.cfg.Mask.Has(v) {
			p.counters.Pruned++
			return
		}
		p.checkAgainst(p.writers[v], er)
	})

	// Stage 2: join the frontier.
	p.insert(er)

	// Stage 3: advance the frontier and retire what it passed.
	pid := ev.PID
	for pid >= len(p.last) {
		p.last = append(p.last, nil)
		p.exited = append(p.exited, false)
		p.pending = append(p.pending, nil)
	}
	p.last[pid] = ev
	if ev.Kind == logging.RecExit {
		p.exited[pid] = true
	}
	p.retire()
}

// checkAgainst tests er against every edge in bucket (same-process pairs
// and already-classified pairs skip early).
func (p *Pipeline) checkAgainst(bucket []*edgeRef, er *edgeRef) {
	for _, other := range bucket {
		if other.e.PID == er.e.PID {
			continue
		}
		p.counters.Pairs++
		if !simultaneous(other, er) {
			continue
		}
		// Canonical orientation: (PID, local index) order is final global
		// ID order, since global IDs are contiguous per process in pid
		// order.
		a, b := other, er
		if a.e.PID > b.e.PID || (a.e.PID == b.e.PID && a.e.ID > b.e.ID) {
			a, b = b, a
		}
		key := pairKey{a.e.PID, a.e.ID, b.e.PID, b.e.ID}
		if p.seen[key] {
			continue
		}
		rs := race.CheckOrientedPair(a.e, b.e, p.cfg.VarNames)
		if len(rs) == 0 {
			continue // unreachable via a shared bucket, kept for safety
		}
		p.seen[key] = true
		p.races = append(p.races, rs...)
		p.counters.Online += int64(len(rs))
		if p.cfg.OnRace != nil {
			for _, r := range rs {
				p.cfg.OnRace(RaceEvent{
					Kind: r.Kind,
					PID1: r.E1.PID, Edge1: r.E1.ID,
					PID2: r.E2.PID, Edge2: r.E2.ID,
					Vars: r.Vars, Names: r.Names,
				})
			}
		}
	}
}

// insert adds er to the per-variable index and its process's pending
// queue.
func (p *Pipeline) insert(er *edgeRef) {
	er.e.Writes.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.writers[v] = append(p.writers[v], er)
		}
	})
	er.e.Reads.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.readers[v] = append(p.readers[v], er)
		}
	})
	pid := er.e.PID
	for pid >= len(p.pending) {
		p.last = append(p.last, nil)
		p.exited = append(p.exited, false)
		p.pending = append(p.pending, nil)
	}
	p.pending[pid] = append(p.pending[pid], er)
	p.width++
	if int64(p.width) > p.counters.Highwater {
		p.counters.Highwater = int64(p.width)
	}
}

// retire pops every process's pending queue while the head is behind the
// frontier: an edge retires once its end node happens-before every live
// process's latest node (processes spawned later chain through a live
// ancestor's future spawn, so they cannot reach back behind the cut).
func (p *Pipeline) retire() {
	for q := range p.pending {
		for len(p.pending[q]) > 0 && p.retireable(q, p.pending[q][0]) {
			er := p.pending[q][0]
			p.pending[q][0] = nil // release the ref promptly
			p.pending[q] = p.pending[q][1:]
			p.remove(er)
			p.width--
			p.counters.Retired++
		}
	}
}

// retireable reports whether every live process other than q has advanced
// past er's end node.
func (p *Pipeline) retireable(q int, er *edgeRef) bool {
	for r, lastEv := range p.last {
		if r == q || lastEv == nil || p.exited[r] {
			continue
		}
		if !happensBefore(er.end, lastEv) {
			return false
		}
	}
	return true
}

// remove deletes er from the per-variable index (swap-remove; bucket
// order is not part of the contract — the final set is canonicalized).
func (p *Pipeline) remove(er *edgeRef) {
	del := func(bucket []*edgeRef) []*edgeRef {
		for i, x := range bucket {
			if x == er {
				bucket[i] = bucket[len(bucket)-1]
				bucket[len(bucket)-1] = nil
				return bucket[:len(bucket)-1]
			}
		}
		return bucket
	}
	er.e.Writes.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.writers[v] = del(p.writers[v])
		}
	})
	er.e.Reads.ForEach(func(v int) {
		if p.cfg.Mask == nil || p.cfg.Mask.Has(v) {
			p.readers[v] = del(p.readers[v])
		}
	})
}

// Finish flushes the builder, renumbers the race-retained edges into the
// global ID space, canonicalizes, and folds the counters into the sink.
// Idempotent; must be called after the last Feed (the Tee's Close
// guarantees the ordering).
func (p *Pipeline) Finish() *Result {
	if p.finished {
		return p.result
	}
	p.finished = true
	p.b.Flush()

	evCounts, edgeCounts := p.b.Counts()
	evOff := make([]int, len(evCounts))
	edgeOff := make([]int, len(edgeCounts))
	for i := 1; i < len(evCounts); i++ {
		evOff[i] = evOff[i-1] + evCounts[i-1]
		edgeOff[i] = edgeOff[i-1] + edgeCounts[i-1]
	}
	renumbered := make(map[*parallel.InternalEdge]bool)
	patch := func(e *parallel.InternalEdge) {
		if renumbered[e] {
			return
		}
		renumbered[e] = true
		e.ID += edgeOff[e.PID]
		if e.Start >= 0 {
			e.Start += parallel.EventID(evOff[e.PID])
		}
		e.End += parallel.EventID(evOff[e.PID])
	}
	for _, r := range p.races {
		patch(r.E1)
		patch(r.E2)
	}
	p.counters.Races = race.Canonicalize(p.races)
	p.result = &p.counters

	if sink := p.cfg.Sink; sink != nil {
		sink.Counter("stream.batches").Add(p.counters.Batches)
		sink.Counter("stream.frontier.highwater").Add(p.counters.Highwater)
		sink.Counter("stream.events.retired").Add(p.counters.Retired)
		sink.Counter("stream.races.online").Add(p.counters.Online)
		sink.Counter("stream.pairs").Add(p.counters.Pairs)
		sink.Counter("stream.mask.pruned").Add(p.counters.Pruned)
	}
	return p.result
}

// clockAt reads a growable clock with implicit zeros: a streaming node's
// clock only reaches as far as the processes it has heard from, which is
// exactly the batch clock with the trailing zeros elided.
func clockAt(c []int, i int) int {
	if i < len(c) {
		return c[i]
	}
	return 0
}

func clocksEqual(a, b []int) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if clockAt(a, i) != clockAt(b, i) {
			return false
		}
	}
	return true
}

// happensBefore is parallel.Graph.HappensBefore over growable clocks.
func happensBefore(a, b *parallel.Event) bool {
	if clockAt(a.Clock, a.PID) > clockAt(b.Clock, a.PID) {
		return false
	}
	return !clocksEqual(a.Clock, b.Clock)
}

// simultaneous is Definition 6.1 over edge refs: neither edge's end node
// happens-before the other's start node. Cross-process edges never share
// nodes, so the batch EdgeHB's same-node shortcut cannot apply; a nil
// start is a process's initial edge, which nothing precedes.
func simultaneous(x, y *edgeRef) bool {
	if y.start != nil && happensBefore(x.end, y.start) {
		return false
	}
	if x.start != nil && happensBefore(y.end, x.start) {
		return false
	}
	return true
}

// Package stream is the online analysis pipeline: it consumes an
// execution's record stream *while the program runs* and performs the
// debugging phase's graph construction and race detection incrementally —
// the event-stream-module architecture DeWiz and MAD argue for, grafted
// onto the paper's §6 machinery.
//
// The pipeline is three stages. The incremental graph builder
// (parallel.NewStreamBuilder) turns the record stream into clocked
// synchronization nodes and internal edges, in generation order. The race
// detector is race.Frontier, the same one race.Detect runs over a finished
// graph: it checks each completed edge against the unretired edges and
// retires the ones the happens-before frontier has passed, so the
// pipeline's high-water mark is bounded by the frontier width, not the
// run length. The early-abort stage is the caller's: the OnRace callback
// fires the moment a race is classified, and ppd.Options.StopAtFirstRace
// uses it to context-cancel the VM.
//
// Oracle equivalence: after renumbering the (few) edges retained by
// races into the global ID space — global IDs are contiguous per process
// in pid order, so (PID, local index) order is global order — the
// canonicalized result is byte-identical to race.Naive over the
// finished graph of the same records, at any batch size. The golden gate
// TestOnlineRacesByteIdentical and FuzzStreamBatches pin this.
package stream

import (
	"strings"

	"ppd/internal/bitset"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
)

// Config parameterizes a Pipeline.
type Config struct {
	// NShared is the GlobalID universe size (len(Program.Globals)).
	NShared int

	// Mask is the static conflict mask (analysis.ConflictMatrix.Mask):
	// variables outside it never enter the frontier's index. nil scans
	// everything. It cannot change the race set (see race.NewFrontier).
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

// String renders the event for live monitors, with race reports' writers
// (race.WriteInt, race.WriteVars).
func (ev RaceEvent) String() string {
	var sb strings.Builder
	sb.Grow(64)
	sb.WriteString(ev.Kind.String())
	sb.WriteString(" race: P")
	race.WriteInt(&sb, ev.PID1+1)
	sb.WriteString(" edge ")
	race.WriteInt(&sb, ev.Edge1)
	sb.WriteString(" vs P")
	race.WriteInt(&sb, ev.PID2+1)
	sb.WriteString(" edge ")
	race.WriteInt(&sb, ev.Edge2)
	sb.WriteString(" on ")
	race.WriteVars(&sb, ev.Vars, ev.Names)
	return sb.String()
}

// Result is the pipeline's final output.
type Result struct {
	// Races is the canonical race set: renumbered into the global ID
	// space, sorted — byte-identical (via race.Report) to
	// race.Naive over the same records.
	Races []*race.Race

	Batches int64 // record batches fed

	// The frontier's tallies: Events counts synchronization nodes built,
	// Retired the edges retired before the run ended.
	race.FrontierStats
}

// Pipeline is the online race detector. Not safe for concurrent use:
// Feed and Finish must come from one goroutine (the Tee serializes).
type Pipeline struct {
	b       *parallel.Builder
	front   *race.Frontier
	sink    *obs.Sink
	batches int64
	result  *Result
}

// New returns a pipeline over cfg.
func New(cfg Config) *Pipeline {
	var onRace func(*race.Race)
	if cfg.OnRace != nil {
		onRace = func(r *race.Race) {
			cfg.OnRace(RaceEvent{
				Kind: r.Kind,
				PID1: r.E1.PID, Edge1: r.E1.ID,
				PID2: r.E2.PID, Edge2: r.E2.ID,
				Vars: r.Vars, Names: r.Names,
			})
		}
	}
	p := &Pipeline{
		front: race.NewFrontier(cfg.NShared, cfg.Mask, cfg.VarNames, onRace),
		sink:  cfg.Sink,
	}
	p.b = parallel.NewStreamBuilder(cfg.NShared, p.front)
	return p
}

// Feed consumes one batch of records in generation order (see
// parallel.Builder's stream mode). The builder hands the frontier every
// node whose clock becomes final.
func (p *Pipeline) Feed(batch []parallel.FeedRecord) {
	p.batches++
	p.b.Feed(batch)
}

// Finish flushes the builder, renumbers the race-retained edges into the
// global ID space, canonicalizes, and folds the counters into the sink.
// Idempotent; must be called after the last Feed (the Tee's Close
// guarantees the ordering).
func (p *Pipeline) Finish() *Result {
	if p.result != nil {
		return p.result
	}
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
	races := p.front.Races()
	for _, r := range races {
		patch(r.E1)
		patch(r.E2)
	}
	res := &Result{Races: race.Canonicalize(races), Batches: p.batches, FrontierStats: p.front.Stats()}
	p.result = res

	if sink := p.sink; sink != nil {
		sink.Counter("stream.batches").Add(res.Batches)
		sink.Counter("stream.frontier.highwater").Add(res.Highwater)
		sink.Counter("stream.events.retired").Add(res.Retired)
		sink.Counter("stream.races.online").Add(res.Online)
		sink.Counter("stream.pairs").Add(res.Pairs)
		sink.Counter("stream.mask.pruned").Add(res.Pruned)
	}
	return res
}

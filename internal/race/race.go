// Package race detects race conditions in an execution instance per the
// paper's §6.4: two *simultaneous* internal edges (Definition 6.1) race
// when their shared READ/WRITE sets conflict (Definition 6.3); an execution
// instance is race-free when no pair races (Definition 6.4).
//
// There is one detector, the Frontier, and the Naive oracle. Naive
// enumerates all pairs of internal edges from different processes — the
// quadratic cost the paper's §7 names as the open problem ("finding all
// pairs of possible conflicting edges is more expensive ... we are
// currently investigating algorithms to reduce the cost") — and stays as
// the reference. The Frontier is such an algorithm: it takes the graph's
// nodes in generation order, tests each internal edge only against the
// unretired edges that share a variable with it (an O(P) vector-clock
// check each), and retires edges the happens-before frontier has passed.
// Detect runs it over a finished graph; package stream runs it online,
// while the program runs. Experiment E8 benchmarks Detect against Naive.
package race

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ppd/internal/bitset"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
)

// Conflict classifies a race by access kinds.
type Conflict int

// Conflict kinds (Definition 6.3's three intersection tests).
const (
	WriteWrite Conflict = iota
	WriteRead           // e1 writes, e2 reads
	ReadWrite           // e1 reads, e2 writes
)

func (c Conflict) String() string {
	switch c {
	case WriteWrite:
		return "write/write"
	case WriteRead:
		return "write/read"
	case ReadWrite:
		return "read/write"
	}
	return "?"
}

// Race is one detected race: two simultaneous edges and the variables they
// conflict on.
type Race struct {
	E1, E2 *parallel.InternalEdge
	Kind   Conflict
	Vars   []int // GlobalIDs in conflict
	// Names holds the source names of Vars when the graph carries them
	// (parallel.Graph.VarNames); reports prefer names over raw IDs.
	Names []string
}

// VarNames renders the conflicting variables: source names when known,
// GlobalIDs otherwise (in fmt's %v form, "[0 2]").
func (r *Race) VarNames() string {
	var sb strings.Builder
	r.writeVarNames(&sb)
	return sb.String()
}

// writeVarNames writes VarNames' rendering to sb.
func (r *Race) writeVarNames(sb *strings.Builder) {
	if len(r.Names) == len(r.Vars) && len(r.Names) > 0 {
		for i, name := range r.Names {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(name)
		}
		return
	}
	sb.WriteByte('[')
	for i, v := range r.Vars {
		if i > 0 {
			sb.WriteByte(' ')
		}
		writeInt(sb, v)
	}
	sb.WriteByte(']')
}

// writeInt writes v in decimal without fmt's reflection and boxing.
func writeInt(sb *strings.Builder, v int) {
	var num [20]byte
	sb.Write(strconv.AppendInt(num[:0], int64(v), 10))
}

// String renders the race for reports.
func (r *Race) String() string {
	return fmt.Sprintf("%s race between P%d edge %d and P%d edge %d on %s",
		r.Kind, r.E1.PID+1, r.E1.ID, r.E2.PID+1, r.E2.ID, r.VarNames())
}

// pairKey canonicalizes a race for deduplication: the edge pair in ID
// order plus the conflict kind. The variables in conflict are fully
// determined by (pair, kind) — the bitset intersection is deterministic —
// so a comparable struct suffices and the dedup map never touches
// fmt.Sprintf.
type pairKey struct {
	a, b int
	kind Conflict
}

// key canonicalizes a race for deduplication.
func (r *Race) key() pairKey {
	a, b := r.E1.ID, r.E2.ID
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b, r.Kind}
}

// CheckOrientedPair applies Definition 6.3 to a pair of simultaneous
// edges, returning the races found (possibly several kinds). The caller
// has put the pair in canonical order — final global ID order — so a
// conflict is classified the same way regardless of discovery order. A
// streamed edge carries a process-local ID, so raw ID order would
// mis-orient a cross-process pair; (PID, ID) order equals final global ID
// order, and the Frontier orients by that. Each intersection is one fused
// pass (bitset.Intersection). varNames, when non-nil, resolves conflict
// variables to source names (Graph.VarNames).
func CheckOrientedPair(e1, e2 *parallel.InternalEdge, varNames []string) []*Race {
	mk := func(kind Conflict, inter *bitset.Set) *Race {
		r := &Race{E1: e1, E2: e2, Kind: kind, Vars: inter.Elems()}
		if varNames != nil {
			r.Names = make([]string, len(r.Vars))
			for i, v := range r.Vars {
				r.Names[i] = varNames[v]
			}
		}
		return r
	}
	var out []*Race
	if inter, ok := bitset.Intersection(e1.Writes, e2.Writes); ok {
		out = append(out, mk(WriteWrite, inter))
	}
	if inter, ok := bitset.Intersection(e1.Writes, e2.Reads); ok {
		out = append(out, mk(WriteRead, inter))
	}
	if inter, ok := bitset.Intersection(e1.Reads, e2.Writes); ok {
		out = append(out, mk(ReadWrite, inter))
	}
	return out
}

// Naive enumerates every pair of internal edges from different processes,
// tests simultaneity, then conflicts. O(E² · (P + V/64)). Pairs come in
// ID order, the canonical orientation.
func Naive(g *parallel.Graph) []*Race {
	var out []*Race
	for i := 0; i < len(g.Edges); i++ {
		for j := i + 1; j < len(g.Edges); j++ {
			e1, e2 := g.Edges[i], g.Edges[j]
			if e1.PID == e2.PID {
				continue
			}
			if !g.Simultaneous(e1, e2) {
				continue
			}
			out = append(out, CheckOrientedPair(e1, e2, g.VarNames)...)
		}
	}
	return dedup(out)
}

// Opts configures Detect. The zero value scans every variable with
// observation off.
type Opts struct {
	// Mask, when non-nil, is the static conflict filter: variables outside
	// it never enter the frontier's index ("race.buckets.pruned" counts the
	// touched ones). It must over-approximate the statically-possible
	// conflicts (analysis.ConflictMatrix.Mask does); the result is then
	// identical to the unfiltered detector's. Soundness: any race on a
	// pruned variable conflicts on that variable, which would have put it
	// in the mask.
	Mask *bitset.Set
	// Sink receives the detector metrics: candidate pairs tested
	// ("race.pairs"), races found ("race.races"), pruned variables, runs
	// ("race.runs"), and detection time (the "debug.race" scope). The
	// frontier counts in plain fields folded in once at the end. A nil
	// sink disables observation.
	Sink *obs.Sink
}

// Detect is the post-mortem race detector: it feeds the finished graph's
// nodes to a Frontier in generation order (walk) and canonicalizes what
// the frontier classifies. Each edge is tested only against the
// unretired edges sharing a variable with it — the candidate set
// Definition 6.3 can ever accept, cut by the happens-before frontier —
// so the result is identical to Naive's, slice order included, with or
// without the mask.
func Detect(g *parallel.Graph, o Opts) []*Race {
	sc := o.Sink.Scope("debug.race")
	defer sc.End()
	f := NewFrontier(g.NumShared(), o.Mask, g.VarNames, nil)
	feed(f, g, walk(g))
	out := dedup(f.Races())
	record(o.Sink, f.Stats(), len(out))
	return out
}

// feed adds g's nodes to f in the given order, each with the internal
// edge it terminates: Graph.Edges[i] ends at Graph.Events[i], since both
// are numbered per process in pid order and every node ends one edge.
func feed(f *Frontier, g *parallel.Graph, order []*parallel.Event) {
	for _, ev := range order {
		e := g.Edges[ev.ID]
		var start *parallel.Event
		if e.Start >= 0 {
			start = g.Events[e.Start]
		}
		f.OnSync(ev, e, start)
	}
}

// walk returns g's nodes in generation order, the order the Frontier
// needs: sync nodes by Gsn (the order the VM logged them); a spawned
// process's start node (Gsn 0, From = its spawn) right after its spawn,
// so the process is live from the moment it exists; an exit node (Gsn 0)
// after its in-process predecessor and that node's spawned starts — a
// child must be live before its parent can exit. Nodes with no such
// place, such as the root's start, go first. Every node comes after its
// in-process predecessor and its From node.
//
// Each node gets the key 2·Gsn of its place, odd for exits, and a
// counting sort orders the keys, ties in node order: a spawn's start
// follows it because a child's pid, hence its node IDs, are higher. The VM
// numbers gsns densely from 1, one per sync node, so the count array is
// no longer than the graph; only a corrupt log numbers past that, and it
// takes a comparison sort instead.
func walk(g *parallel.Graph) []*parallel.Event {
	evs := g.Events
	key := make([]uint64, len(evs))
	var maxKey uint64
	for i, ev := range evs {
		switch {
		case ev.Kind == logging.RecStart && ev.From >= 0 && int(ev.From) < i && evs[ev.From].Kind == logging.RecSync:
			key[i] = key[ev.From]
		case ev.Kind == logging.RecExit && ev.Gsn == 0 && ev.Idx > 0:
			key[i] = key[i-1] | 1
		default:
			key[i] = 2 * ev.Gsn
		}
		maxKey = max(maxKey, key[i])
	}
	order := make([]*parallel.Event, len(evs))
	if maxKey > uint64(4*len(evs)) {
		copy(order, evs)
		sort.SliceStable(order, func(a, b int) bool { return key[order[a].ID] < key[order[b].ID] })
		return order
	}
	at := make([]int, maxKey+2)
	for _, k := range key {
		at[k+1]++
	}
	for k := 1; k < len(at); k++ {
		at[k] += at[k-1]
	}
	for i, k := range key {
		order[at[k]] = evs[i]
		at[k]++
	}
	return order
}

// record folds one detection run's tallies into the sink.
func record(sink *obs.Sink, st FrontierStats, races int) {
	if sink == nil {
		return
	}
	sink.Counter("race.pairs").Add(st.Pairs)
	sink.Counter("race.races").Add(int64(races))
	sink.Counter("race.buckets.pruned").Add(st.Pruned)
	sink.Counter("race.runs").Inc()
}

// Canonicalize dedups and sorts races into the canonical report order —
// (E1.ID, E2.ID, Kind) ascending, first occurrence kept. Naive and Detect
// apply it internally; the online pipeline applies it after renumbering
// its retained edges into the global ID space, which is what makes its
// final race set byte-identical to Naive's.
func Canonicalize(rs []*Race) []*Race { return dedup(rs) }

func dedup(rs []*Race) []*Race {
	seen := make(map[pairKey]bool)
	var out []*Race
	for _, r := range rs {
		k := r.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].E1.ID != out[j].E1.ID {
			return out[i].E1.ID < out[j].E1.ID
		}
		if out[i].E2.ID != out[j].E2.ID {
			return out[i].E2.ID < out[j].E2.ID
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// reportLineBytes estimates one report line: the fixed text plus six
// short numbers and a short variable list. Report sizes its buffer from
// it, so a typical report renders without regrowing.
const reportLineBytes = 80

// Report renders races with variable names resolved: through globalName
// when non-nil, else each race's VarNames. The whole report is written
// into one buffer sized up front — a triage session's report can run to
// thousands of lines, and this is the last step before the answer.
func Report(races []*Race, globalName func(int) string) string {
	if len(races) == 0 {
		return "no races detected: the execution instance is race-free (Def 6.4)\n"
	}
	var sb strings.Builder
	sb.Grow(32 + len(races)*reportLineBytes)
	writeInt(&sb, len(races))
	sb.WriteString(" race(s) detected:\n")
	for _, r := range races {
		sb.WriteString("  ")
		sb.WriteString(r.Kind.String())
		sb.WriteString(" race: ")
		writeEdge(&sb, r.E1)
		sb.WriteString(" vs ")
		writeEdge(&sb, r.E2)
		sb.WriteString(" on ")
		if globalName != nil {
			for i, v := range r.Vars {
				if i > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(globalName(v))
			}
		} else {
			r.writeVarNames(&sb)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// writeEdge writes one side of a report line: "P<pid> [events <start>..<end>]".
func writeEdge(sb *strings.Builder, e *parallel.InternalEdge) {
	sb.WriteByte('P')
	writeInt(sb, e.PID+1)
	sb.WriteString(" [events ")
	writeInt(sb, int(e.Start))
	sb.WriteString("..")
	writeInt(sb, int(e.End))
	sb.WriteByte(']')
}

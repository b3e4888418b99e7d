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
// Detect runs it over a finished graph, and package stream online, while
// the program runs. Experiment E8 benchmarks Detect against Naive.
package race

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"ppd/internal/bitset"
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
	WriteVars(&sb, r.Vars, r.Names)
	return sb.String()
}

// WriteVars writes a race's variables as reports print them: names,
// comma-separated, when they cover vars, else the GlobalIDs in fmt's %v
// form ("[0 2]"). Race reports and package stream's live race lines share
// it.
func WriteVars(sb *strings.Builder, vars []int, names []string) {
	if len(names) == len(vars) && len(names) > 0 {
		for i, name := range names {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(name)
		}
		return
	}
	sb.WriteByte('[')
	for i, v := range vars {
		if i > 0 {
			sb.WriteByte(' ')
		}
		WriteInt(sb, v)
	}
	sb.WriteByte(']')
}

// WriteInt writes v in decimal without fmt's reflection and boxing.
func WriteInt(sb *strings.Builder, v int) {
	var num [20]byte
	sb.Write(strconv.AppendInt(num[:0], int64(v), 10))
}

// String renders the race for reports.
func (r *Race) String() string {
	var sb strings.Builder
	sb.Grow(reportLineBytes)
	sb.WriteString(r.Kind.String())
	sb.WriteString(" race between P")
	WriteInt(&sb, r.E1.PID+1)
	sb.WriteString(" edge ")
	WriteInt(&sb, r.E1.ID)
	sb.WriteString(" and P")
	WriteInt(&sb, r.E2.PID+1)
	sb.WriteString(" edge ")
	WriteInt(&sb, r.E2.ID)
	sb.WriteString(" on ")
	WriteVars(&sb, r.Vars, r.Names)
	return sb.String()
}

// raceChunk is how many Races one allocation carves, and arenaChunk how
// many variables (or names) one arena allocation holds before the next
// starts.
const (
	raceChunk  = 128
	arenaChunk = 1024
)

// classifier applies Definition 6.3 to simultaneous edge pairs and carves
// the races it finds from shared storage: Races from raceChunk-element
// chunks, their Vars and Names from arenas. Each Vars and Names slice is
// capped with a full slice expression, so a caller's append copies
// instead of clobbering the neighbour. varNames, when non-nil, resolves
// conflict variables to source names (Graph.VarNames).
type classifier struct {
	varNames []string
	races    []Race   // the current chunk's unused tail
	vars     []int    // the current variable arena
	names    []string // the current name arena
}

// check appends to out the races of the pair (e1, e2), at most one per
// conflict kind. The caller has put the pair in canonical order — final
// global ID order — so a conflict is classified the same way regardless
// of discovery order. A streamed edge carries a process-local ID, so raw
// ID order would mis-orient a cross-process pair; (PID, ID) order equals
// final global ID order, and the Frontier orients by that.
func (c *classifier) check(out []*Race, e1, e2 *parallel.InternalEdge) []*Race {
	out = c.conflict(out, e1, e2, WriteWrite, e1.Writes, e2.Writes)
	out = c.conflict(out, e1, e2, WriteRead, e1.Writes, e2.Reads)
	return c.conflict(out, e1, e2, ReadWrite, e1.Reads, e2.Writes)
}

// conflict appends the race of kind on a ∩ b, if the intersection is not
// empty. The intersection goes straight into the variable arena.
func (c *classifier) conflict(out []*Race, e1, e2 *parallel.InternalEdge, kind Conflict, a, b *bitset.Set) []*Race {
	if len(c.vars) >= arenaChunk {
		c.vars = make([]int, 0, arenaChunk)
	}
	lo := len(c.vars)
	c.vars = bitset.AppendIntersection(c.vars, a, b)
	hi := len(c.vars)
	if hi == lo {
		return out
	}
	if len(c.races) == 0 {
		c.races = make([]Race, raceChunk)
	}
	r := &c.races[0]
	c.races = c.races[1:]
	*r = Race{E1: e1, E2: e2, Kind: kind, Vars: c.vars[lo:hi:hi]}
	if c.varNames != nil {
		if len(c.names) >= arenaChunk {
			c.names = make([]string, 0, arenaChunk)
		}
		lo := len(c.names)
		for _, v := range r.Vars {
			c.names = append(c.names, c.varNames[v])
		}
		hi := len(c.names)
		r.Names = c.names[lo:hi:hi]
	}
	return append(out, r)
}

// Naive enumerates every pair of internal edges from different processes,
// tests simultaneity, then conflicts. O(E² · (P + V/64)). Pairs come in
// ID order, the canonical orientation, and each pair once, so Naive never
// emits a duplicate.
func Naive(g *parallel.Graph) []*Race {
	c := classifier{varNames: g.VarNames}
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
			out = c.check(out, e1, e2)
		}
	}
	return Canonicalize(out)
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

// Detect is the post-mortem race detector over a finished graph: it feeds
// the graph's nodes to a Frontier in the order the builder clocked them
// (Graph.Order, generation order for a graph from parallel.Build) and
// canonicalizes what the frontier classifies. Each edge is tested only
// against the unretired edges sharing a variable with it — the candidate
// set Definition 6.3 can ever accept, cut by the happens-before frontier —
// so the result is identical to Naive's, slice order included, with or
// without the mask. It panics on a graph without a full recorded order,
// such as one a parallel.Builder finished: replaying any other order
// would silently lose races.
func Detect(g *parallel.Graph, o Opts) []*Race {
	order := g.Order()
	if len(order) != len(g.Events) {
		panic("race: Detect needs a graph from parallel.Build (its recorded order covers " +
			strconv.Itoa(len(order)) + " of " + strconv.Itoa(len(g.Events)) + " nodes)")
	}
	sc := o.Sink.Scope("debug.race")
	defer sc.End()
	f := NewFrontier(g.NumShared(), o.Mask, g.VarNames, nil)
	for _, ev := range order {
		e := g.Edges[ev.ID] // Edges[i] ends at Events[i]: each node ends one edge
		var start *parallel.Event
		if e.Start >= 0 {
			start = g.Events[e.Start]
		}
		f.OnSync(ev, e, start)
	}
	return f.result(o.Sink)
}

// result canonicalizes the frontier's races and folds its tallies into
// sink.
func (f *Frontier) result(sink *obs.Sink) []*Race {
	out := Canonicalize(f.Races())
	if sink != nil {
		st := f.Stats()
		sink.Counter("race.pairs").Add(st.Pairs)
		sink.Counter("race.races").Add(int64(len(out)))
		sink.Counter("race.buckets.pruned").Add(st.Pruned)
		sink.Counter("race.runs").Inc()
	}
	return out
}

// Canonicalize sorts races into the canonical report order — (E1.ID,
// E2.ID, Kind) ascending — in place and returns them. Neither detector
// emits a pair twice, so ordering is all it takes. Naive and Detect apply
// it internally; the online pipeline applies it after renumbering its
// retained edges into the global ID space, which is what makes its final
// race set byte-identical to Naive's.
func Canonicalize(rs []*Race) []*Race {
	slices.SortFunc(rs, func(a, b *Race) int {
		if c := cmp.Compare(a.E1.ID, b.E1.ID); c != 0 {
			return c
		}
		if c := cmp.Compare(a.E2.ID, b.E2.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return rs
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
	WriteInt(&sb, len(races))
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
			WriteVars(&sb, r.Vars, r.Names)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// writeEdge writes one side of a report line: "P<pid> [events <start>..<end>]".
func writeEdge(sb *strings.Builder, e *parallel.InternalEdge) {
	sb.WriteByte('P')
	WriteInt(sb, e.PID+1)
	sb.WriteString(" [events ")
	WriteInt(sb, int(e.Start))
	sb.WriteString("..")
	WriteInt(sb, int(e.End))
	sb.WriteByte(']')
}

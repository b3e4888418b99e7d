// Package race detects race conditions in an execution instance per the
// paper's §6.4: two *simultaneous* internal edges (Definition 6.1) race
// when their shared READ/WRITE sets conflict (Definition 6.3); an execution
// instance is race-free when no pair races (Definition 6.4).
//
// Two detectors are provided. Naive enumerates all pairs of internal edges
// from different processes — the quadratic cost the paper's §7 names as the
// open problem ("finding all pairs of possible conflicting edges is more
// expensive ... we are currently investigating algorithms to reduce the
// cost") and stays as the oracle. Detect is such an algorithm and the one
// entry point every caller uses: it buckets edges by the shared variable
// they touch, so only edges that can possibly conflict are ever compared,
// and each comparison is an O(P) vector-clock check. Experiment E8
// benchmarks the two against each other.
package race

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ppd/internal/bitset"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/sched"
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

// key canonicalizes a race for deduplication across detectors.
func (r *Race) key() pairKey {
	a, b := r.E1.ID, r.E2.ID
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b, r.Kind}
}

// checkPair applies Definition 6.3 to a pair of simultaneous edges,
// returning the races found (possibly several kinds). Each intersection is
// one fused pass (bitset.Intersection) instead of an Intersects probe
// followed by Clone+IntersectWith.
func checkPair(g *parallel.Graph, e1, e2 *parallel.InternalEdge) []*Race {
	// Canonical orientation so both detectors classify a conflict the same
	// way regardless of discovery order.
	if e1.ID > e2.ID {
		e1, e2 = e2, e1
	}
	return CheckOrientedPair(e1, e2, g.VarNames)
}

// CheckOrientedPair is checkPair without the re-orientation: the caller
// has already put the pair in canonical order. The streaming detector
// needs this split because it classifies pairs while edges still carry
// process-local IDs — raw ID order would mis-orient a cross-process pair,
// but (PID, local index) order equals final global ID order, so the
// stream orients by that and the classification matches the batch
// detector's exactly. varNames, when non-nil, resolves conflict variables
// to source names (the batch path passes Graph.VarNames).
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
// tests simultaneity, then conflicts. O(E² · (P + V/64)).
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
			out = append(out, checkPair(g, e1, e2)...)
		}
	}
	return dedup(out)
}

// buckets indexes the graph's internal edges per shared variable,
// separately for readers and writers — the candidate sets Definition 6.3
// can ever accept.
func buckets(g *parallel.Graph) (readers, writers [][]*parallel.InternalEdge) {
	nv := g.NumShared()
	readers = make([][]*parallel.InternalEdge, nv)
	writers = make([][]*parallel.InternalEdge, nv)
	for _, e := range g.Edges {
		e.Reads.ForEach(func(v int) { readers[v] = append(readers[v], e) })
		e.Writes.ForEach(func(v int) { writers[v] = append(writers[v], e) })
	}
	return readers, writers
}

// scanVars tests every candidate pair of the variables in [lo, hi),
// appending the races found. Pairs sharing several variables are tested
// once per variable; the duplicate Race entries that produces are removed
// by dedup — cheaper than tracking visited pairs in a map. pairs counts
// candidate pairs tested (a plain local counter; the caller folds it into
// its sink only when observation is enabled).
// mask, when non-nil, is the static conflict mask: buckets of variables
// outside it are skipped entirely (pruned counts them). Soundness: the
// mask over-approximates every variable two processes can conflict on, so
// a skipped bucket can contain no racing pair — any race discoverable via
// a pruned variable conflicts on that variable, which would have put it
// in the mask.
func scanVars(g *parallel.Graph, readers, writers [][]*parallel.InternalEdge, lo, hi int, mask *bitset.Set, pairs, pruned *int64) []*Race {
	var out []*Race
	tryPair := func(e1, e2 *parallel.InternalEdge) {
		if e1.PID == e2.PID {
			return
		}
		*pairs++
		if !g.Simultaneous(e1, e2) {
			return
		}
		out = append(out, checkPair(g, e1, e2)...)
	}
	for v := lo; v < hi; v++ {
		if mask != nil && !mask.Has(v) {
			if len(writers[v]) > 0 || len(readers[v]) > 0 {
				*pruned++
			}
			continue
		}
		// write/write and write/read candidates.
		for i, w := range writers[v] {
			for _, w2 := range writers[v][i+1:] {
				tryPair(w, w2)
			}
			for _, r := range readers[v] {
				tryPair(w, r)
			}
		}
	}
	return out
}

// Opts configures Detect. The zero value scans every bucket on GOMAXPROCS
// workers with observation off.
type Opts struct {
	// Workers bounds the scan's fan-out: <= 0 selects GOMAXPROCS, and one
	// worker (or one variable) runs the scan inline with no goroutines.
	Workers int
	// Mask, when non-nil, is the static conflict filter: per-variable
	// buckets outside it are skipped without scanning
	// ("race.buckets.pruned" counts them). It must over-approximate the
	// statically-possible conflicts (analysis.ConflictMatrix.Mask does);
	// the result is then identical to the unfiltered scan's.
	Mask *bitset.Set
	// Sink receives the detector metrics: candidate pairs tested
	// ("race.pairs"), races found ("race.races"), pruned buckets, runs
	// ("race.runs"), and detection time (the "debug.race" scope). Each
	// worker counts in plain locals folded in once after the merge, so the
	// hot scan never touches an atomic. A nil sink disables observation.
	Sink *obs.Sink
}

// chunkScan is one worker's share of a sharded scan: the races plus the
// pair count of a contiguous variable range.
type chunkScan struct {
	races  []*Race
	pairs  int64
	pruned int64
}

// Detect buckets edges per shared variable (separately for readers and
// writers), then tests only pairs sharing a variable — the candidate set
// Definition 6.3 can ever accept — eliminating the quadratic sweep over
// unrelated edges. The buckets are independent by construction, so they
// are sharded across a bounded worker pool: each worker scans a contiguous
// range of variables (pruning by Mask inside its range), the per-worker
// race slices are merged in variable order, and dedup canonicalizes — so
// the result is identical to Naive's, slice order included, at every
// width and with or without the mask.
func Detect(g *parallel.Graph, o Opts) []*Race {
	sc := o.Sink.Scope("debug.race")
	defer sc.End()
	readers, writers := buckets(g)
	parts := sched.ChunkMap(sched.NewObs(o.Workers, o.Sink), g.NumShared(),
		func(lo, hi int) chunkScan {
			var cs chunkScan
			cs.races = scanVars(g, readers, writers, lo, hi, o.Mask, &cs.pairs, &cs.pruned)
			return cs
		})
	var all []*Race
	var pairs, pruned int64
	for _, part := range parts {
		all = append(all, part.races...)
		pairs += part.pairs
		pruned += part.pruned
	}
	out := dedup(all)
	record(o.Sink, pairs, pruned, len(out))
	return out
}

// record folds one detection run's tallies into the sink.
func record(sink *obs.Sink, pairs, pruned int64, races int) {
	if sink == nil {
		return
	}
	sink.Counter("race.pairs").Add(pairs)
	sink.Counter("race.races").Add(int64(races))
	sink.Counter("race.buckets.pruned").Add(pruned)
	sink.Counter("race.runs").Inc()
}

// Canonicalize dedups and sorts races into the canonical report order —
// (E1.ID, E2.ID, Kind) ascending, first occurrence kept. The batch
// detectors apply it internally; the streaming detector applies it after
// renumbering its retained edges into the global ID space, which is what
// makes its final race set byte-identical to the batch oracle's.
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

// RaceFree implements Definition 6.4 for an execution instance.
func RaceFree(g *parallel.Graph) bool {
	return len(Detect(g, Opts{})) == 0
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

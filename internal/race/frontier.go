package race

import (
	"ppd/internal/bitset"
	"ppd/internal/logging"
	"ppd/internal/parallel"
)

// edgeRef is one unretired internal edge with its endpoint nodes (the
// clock carriers for the simultaneity test).
type edgeRef struct {
	e          *parallel.InternalEdge
	start, end *parallel.Event // start nil for a process's first edge

	// stamp is the sequence number (FrontierStats.Events) of the latest
	// node whose edge was tested against this one: a pair sharing several
	// variables meets in several buckets but is tested once.
	stamp int64
}

// refChunk is how many edgeRefs one allocation carves. A chunk stays
// reachable while any of its refs is unretired; retired refs hold no
// pointers, so a pinned chunk costs its own bytes only.
const refChunk = 128

// FrontierStats tallies one Frontier's work.
type FrontierStats struct {
	Events    int64 // nodes added
	Pairs     int64 // candidate pairs tested for simultaneity
	Pruned    int64 // variables some edge touched that the mask kept out of the index
	Retired   int64 // edges retired behind the frontier
	Highwater int64 // max unretired edges at any point (the memory bound)
	Online    int64 // races classified when found (one per kind per pair)
}

// Frontier is the race detector. It takes the graph's synchronization
// nodes one at a time, each with the internal edge it terminates, checks
// that edge against the *unretired* edges indexed per shared variable,
// then retires the edges the happens-before frontier has passed: once
// every live process's latest node happens-after an edge's end node, no
// later edge can be simultaneous with it (a later edge's start chains
// through some live process's latest node), so the edge leaves the index.
// Its live state is bounded by the frontier width, not the run length.
//
// Node order is the one contract: nodes must arrive in generation order,
// a linear extension of happens-before in which a spawned process's start
// node comes right after its spawn. Then arrival-time checking is sound.
// A retired edge r cannot race with a later-arriving edge e: at r's
// retirement, e's process either had nodes (its then-latest node L
// satisfied r.end → L, and e.start is L or later in program order, so
// r → e), or did not exist yet (its start follows a live ancestor's
// later spawn, which happens-after that ancestor's then-latest node, hence
// after r.end). Every cross-process conflicting pair is therefore
// classified exactly once. A process reached late breaks the second case:
// walking the nodes in pid order loses races.
//
// Two callers feed it: Detect replays the order parallel.Build recorded,
// and the online pipeline (package stream) is the Observer of a
// stream-mode parallel.Builder; both clock nodes in generation order.
// Classification allocates nothing per race: races and their variable
// lists come from the classifier's chunks and arenas. Not safe for
// concurrent use.
type Frontier struct {
	mask   *bitset.Set
	cls    classifier
	onRace func(*Race)

	last    []*parallel.Event // latest node per process
	exited  []bool            // process has added its exit node
	pending [][]*edgeRef      // unretired edges per process, FIFO

	// blocker is, per process, the live process whose latest node its
	// pending head has not yet happened-before (-1: none known). Only that
	// process advancing or exiting can make the head retireable: a node
	// that happens-before a process's latest node also happens-before
	// every later one.
	blocker []int
	free    []edgeRef // edgeRefs carved in chunks, one allocation per chunk

	readers [][]*edgeRef // reader edges per shared variable
	writers [][]*edgeRef // writer edges per shared variable
	dead    []int        // retired refs still in a variable's two buckets
	pruned  *bitset.Set  // touched variables the mask kept out

	races []*Race

	width int // unretired edges now
	stats FrontierStats
}

// NewFrontier returns an empty frontier over nShared variables. mask,
// when non-nil, is the static conflict filter: variables outside it never
// enter the index. It must over-approximate the statically-possible
// conflicts (analysis.ConflictMatrix.Mask does); the race set is then the
// unfiltered one. varNames, when non-nil, names race variables. onRace,
// when non-nil, fires once per race the moment it is classified, while
// the edges still carry the IDs they arrived with.
func NewFrontier(nShared int, mask *bitset.Set, varNames []string, onRace func(*Race)) *Frontier {
	return &Frontier{
		mask:    mask,
		cls:     classifier{varNames: varNames},
		onRace:  onRace,
		readers: make([][]*edgeRef, nShared),
		writers: make([][]*edgeRef, nShared),
		dead:    make([]int, nShared),
		pruned:  bitset.New(nShared),
	}
}

// OnSync implements parallel.Observer: one synchronization node, the
// internal edge it terminates, and that edge's start node (nil for a
// process's first edge). Order matters: the edge is checked against the
// frontier *before* the node advances it — a frontier advanced first could
// retire edges this edge still races with.
func (f *Frontier) OnSync(ev *parallel.Event, edge *parallel.InternalEdge, start *parallel.Event) {
	f.stats.Events++
	pid := ev.PID
	for pid >= len(f.last) {
		f.last = append(f.last, nil)
		f.exited = append(f.exited, false)
		f.pending = append(f.pending, nil)
		f.blocker = append(f.blocker, -1)
	}
	if len(f.free) == 0 {
		f.free = make([]edgeRef, refChunk)
	}
	er := &f.free[0]
	f.free = f.free[1:]
	*er = edgeRef{e: edge, start: start, end: ev}

	// Check against the unretired index, mask-pruned.
	edge.Writes.ForEach(func(v int) {
		if !f.indexed(v) {
			f.pruned.Add(v)
			return
		}
		f.checkAgainst(f.writers[v], er)
		f.checkAgainst(f.readers[v], er)
	})
	edge.Reads.ForEach(func(v int) {
		if !f.indexed(v) {
			f.pruned.Add(v)
			return
		}
		f.checkAgainst(f.writers[v], er)
	})

	f.insert(er)

	// Advance the frontier and retire what it passed.
	f.last[pid] = ev
	if ev.Kind == logging.RecExit {
		f.exited[pid] = true
	}
	f.retire(pid)
}

// Races returns the races classified so far, in discovery order, each
// pair once; Canonicalize puts them in report order.
func (f *Frontier) Races() []*Race { return f.races }

// Stats returns the frontier's tallies so far.
func (f *Frontier) Stats() FrontierStats {
	s := f.stats
	s.Pruned = int64(f.pruned.Count())
	return s
}

// indexed reports whether the mask lets v into the index.
func (f *Frontier) indexed(v int) bool { return f.mask == nil || f.mask.Has(v) }

// checkAgainst tests er against every unretired edge in bucket.
// Same-process pairs skip early, and so does a pair already tested for
// this node: its other shared variable's bucket came first. Every pair
// counts in Pairs, as a candidate the index produced.
func (f *Frontier) checkAgainst(bucket []*edgeRef, er *edgeRef) {
	for _, other := range bucket {
		if other.e == nil || other.e.PID == er.e.PID {
			continue // retired, or same process
		}
		f.stats.Pairs++
		if other.stamp == f.stats.Events {
			continue
		}
		other.stamp = f.stats.Events
		if !simultaneous(other, er) {
			continue
		}
		// Canonical orientation: (PID, ID) order is final global ID order,
		// since global IDs are contiguous per process in pid order — and a
		// streamed edge's process-local ID orders it within its process.
		a, b := other, er
		if a.e.PID > b.e.PID || (a.e.PID == b.e.PID && a.e.ID > b.e.ID) {
			a, b = b, a
		}
		n := len(f.races)
		f.races = f.cls.check(f.races, a.e, b.e)
		f.stats.Online += int64(len(f.races) - n)
		if f.onRace != nil {
			for _, r := range f.races[n:] {
				f.onRace(r)
			}
		}
	}
}

// insert adds er to the per-variable index and its process's pending
// queue.
func (f *Frontier) insert(er *edgeRef) {
	er.e.Writes.ForEach(func(v int) {
		if f.indexed(v) {
			f.writers[v] = append(f.writers[v], er)
		}
	})
	er.e.Reads.ForEach(func(v int) {
		if f.indexed(v) {
			f.readers[v] = append(f.readers[v], er)
		}
	})
	pid := er.e.PID
	f.pending[pid] = append(f.pending[pid], er)
	f.width++
	if int64(f.width) > f.stats.Highwater {
		f.stats.Highwater = int64(f.width)
	}
}

// retire pops every process's pending queue while the head is behind the
// frontier, after process pid advanced: an edge retires once its end node
// happens-before every live process's latest node (processes spawned
// later chain through a live ancestor's future spawn, so they cannot
// reach back behind the cut). A head blocked by a process other than pid
// stays blocked.
func (f *Frontier) retire(pid int) {
	for q := range f.pending {
		if b := f.blocker[q]; b >= 0 && b != pid {
			continue
		}
		f.blocker[q] = -1
		for len(f.pending[q]) > 0 {
			er := f.pending[q][0]
			if r := f.waitsOn(q, er); r >= 0 {
				f.blocker[q] = r
				break
			}
			f.pending[q][0] = nil
			f.pending[q] = f.pending[q][1:]
			f.remove(er)
			f.width--
			f.stats.Retired++
		}
	}
}

// waitsOn returns a live process other than q that has not advanced past
// er's end node, or -1 when every one has.
func (f *Frontier) waitsOn(q int, er *edgeRef) int {
	for r, lastEv := range f.last {
		if r == q || lastEv == nil || f.exited[r] {
			continue
		}
		if !happensBefore(er.end, lastEv) {
			return r
		}
	}
	return -1
}

// remove retires er from the per-variable index. A retired ref holds
// nothing and checkAgainst skips it; it stays in its buckets until
// retired refs are half of a variable's, and then both of the variable's
// buckets drop them. Retirement so costs O(1) amortized instead of a
// search per bucket (bucket order is not part of the contract — the final
// set is canonicalized).
func (f *Frontier) remove(er *edgeRef) {
	e := er.e
	*er = edgeRef{}
	drop := func(v int) {
		if !f.indexed(v) {
			return
		}
		f.dead[v]++
		if 2*f.dead[v] > len(f.readers[v])+len(f.writers[v]) {
			f.readers[v], f.writers[v] = live(f.readers[v]), live(f.writers[v])
			f.dead[v] = 0
		}
	}
	e.Writes.ForEach(drop)
	e.Reads.ForEach(drop)
}

// live compacts bucket to its unretired refs, in place.
func live(bucket []*edgeRef) []*edgeRef {
	out := bucket[:0]
	for _, x := range bucket {
		if x.e != nil {
			out = append(out, x)
		}
	}
	clear(bucket[len(out):])
	return out
}

// clockAt reads a growable clock with implicit zeros: a streamed node's
// clock only reaches as far as the processes it has heard from, which is
// exactly the finished graph's clock with the trailing zeros elided.
func clockAt(c []int, i int) int {
	if i < len(c) {
		return c[i]
	}
	return 0
}

func clocksEqual(a, b []int) bool {
	n := max(len(a), len(b))
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
// nodes, so Graph.EdgeHB's same-node shortcut cannot apply; a nil start is
// a process's initial edge, which nothing precedes.
func simultaneous(x, y *edgeRef) bool {
	if y.start != nil && happensBefore(x.end, y.start) {
		return false
	}
	if x.start != nil && happensBefore(y.end, x.start) {
		return false
	}
	return true
}

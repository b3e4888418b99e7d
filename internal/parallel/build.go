package parallel

import (
	"cmp"
	"slices"

	"ppd/internal/bitset"
	"ppd/internal/logging"
)

// Build constructs the graph from an execution's logs. nShared is the size
// of the GlobalID space (for the read/write bitsets).
//
// The build is one sequential pass over a counted log. A first scan counts
// each process's synchronization nodes, which fixes every node's global ID
// (IDs are contiguous per process in pid order) and lets the events, the
// internal edges, their read/write bitsets and the clocks be carved from
// exact-size slabs. A second scan fills the nodes straight from the log
// records and resolves each node's causal source through a gsn index.
// The nodes are then clocked in generation order (genOrder), the order a
// logging tap would have seen them, so a node's predecessor and source are
// always clocked first; the Builder's pending queues cover a corrupt log
// that breaks that. The graph records that order (Graph.Order) for race
// detection, and otherwise equals Finish's over the same log.
func Build(pl *logging.ProgramLog, nShared int) *Graph {
	nProcs := pl.NumProcs()
	procOff := make([]int, nProcs+1)
	var maxGsn uint64
	for pid, book := range pl.Books {
		n := 0
		for _, r := range book.Records {
			if isNode(r.Kind) {
				n++
				maxGsn = max(maxGsn, r.Gsn)
			}
		}
		procOff[pid+1] = procOff[pid] + n
	}
	n := procOff[nProcs]
	nw := (nShared + 63) / 64
	events := make([]Event, n)
	edges := make([]InternalEdge, n)
	pend := make([]pendingEv, n)
	sets := make([]bitset.Set, 2*n)
	words := make([]uint64, 2*n*nw)
	procs := make([]builderProc, nProcs)
	b := &Builder{
		nShared:  nShared,
		procs:    make([]*builderProc, nProcs),
		clockLen: nProcs,
		clocks:   make([]int, n*nProcs),
		order:    make([]*Event, 0, n),
	}
	for pid := range procs {
		b.procs[pid] = &procs[pid]
	}

	gsns := newGsnIndex(maxGsn, n)
	for pid, book := range pl.Books {
		i, startRec := procOff[pid], 0
		for ri, r := range book.Records {
			if !isNode(r.Kind) {
				continue
			}
			idx := i - procOff[pid]
			ev := &events[i]
			*ev = Event{ID: EventID(i), PID: pid, Idx: idx, Op: r.Op, Kind: r.Kind, Obj: r.Obj, Stmt: r.Stmt, Gsn: r.Gsn, From: -1}
			e := &edges[i]
			*e = InternalEdge{ID: i, PID: pid, Start: -1, End: EventID(i), StartRec: startRec, EndRec: ri}
			e.Reads, e.Writes = carveSet(&sets[2*i], words, 2*i, nw, nShared, r.Reads), carveSet(&sets[2*i+1], words, 2*i+1, nw, nShared, r.Writes)
			pe := &pend[i]
			*pe = pendingEv{ev: ev, edge: e, fromGsn: r.FromGsn}
			if idx > 0 {
				e.Start, pe.prev = EventID(i-1), &events[i-1]
			}
			if r.Gsn != 0 {
				gsns.set(r.Gsn, i)
			}
			startRec = ri + 1
			i++
		}
	}
	nSync := 0
	for i := range pend {
		pe := &pend[i]
		if pe.fromGsn == 0 {
			continue
		}
		if src, ok := gsns.get(pe.fromGsn); ok {
			pe.fromEv = &events[src]
			pe.ev.From = EventID(src)
			nSync++
		}
		pe.fromGsn = 0 // resolved, or unmatched: no sync edge
	}

	for _, i := range genOrder(events, pend) {
		b.push(&pend[i])
	}
	b.Flush()

	g := &Graph{
		Log:       pl,
		Events:    make([]*Event, n),
		Edges:     make([]*InternalEdge, n),
		SyncEdges: make([][2]EventID, 0, nSync),
		procOff:   procOff,
		order:     b.order,
		nProcs:    nProcs,
		nShared:   nShared,
	}
	for i := range events {
		g.Events[i], g.Edges[i] = &events[i], &edges[i]
		if src := events[i].From; src >= 0 {
			g.SyncEdges = append(g.SyncEdges, [2]EventID{src, EventID(i)})
		}
	}
	return g
}

// isNode reports whether a record kind is a synchronization node.
func isNode(k logging.Kind) bool {
	return k == logging.RecSync || k == logging.RecStart || k == logging.RecExit
}

// carveSet makes set k of the slab a set over [0, nShared) on its own
// nw words and fills it with elems.
func carveSet(s *bitset.Set, words []uint64, k, nw, nShared int, elems []int) *bitset.Set {
	s.Init(words[k*nw:(k+1)*nw:(k+1)*nw], nShared)
	for _, v := range elems {
		s.Add(v)
	}
	return s
}

// gsnIndex maps a gsn to the node carrying it: a dense slice when the
// gsns are dense (the VM numbers them from 1, one per sync node), a map
// when they are not, as in a corrupt log. A gsn carried twice maps to the
// later node in pid-then-record order.
type gsnIndex struct {
	dense  []int32 // node+1 per gsn; 0: none
	sparse map[uint64]int
}

func newGsnIndex(maxGsn uint64, nodes int) gsnIndex {
	if maxGsn <= uint64(4*nodes) {
		return gsnIndex{dense: make([]int32, maxGsn+1)}
	}
	return gsnIndex{sparse: make(map[uint64]int, nodes)}
}

func (x gsnIndex) set(gsn uint64, node int) {
	if x.dense != nil {
		x.dense[gsn] = int32(node + 1)
		return
	}
	x.sparse[gsn] = node
}

func (x gsnIndex) get(gsn uint64) (int, bool) {
	if x.dense != nil {
		if gsn >= uint64(len(x.dense)) || x.dense[gsn] == 0 {
			return 0, false
		}
		return int(x.dense[gsn]) - 1, true
	}
	node, ok := x.sparse[gsn]
	return node, ok
}

// genOrder returns the nodes' indexes in generation order, the order race
// detection needs: sync nodes by Gsn (the order the VM logged them); a
// spawned process's start node (Gsn 0, its source the spawn) right after
// its spawn, so the process is live from the moment it exists; an exit
// node (Gsn 0) after its in-process predecessor and that node's spawned
// starts — a child must be live before its parent can exit. Nodes with no
// such place, such as the root's start, go first. Every node comes after
// its in-process predecessor and its source.
//
// Each node gets the key 2·Gsn of its place, odd for exits, and a
// counting sort orders the keys, ties in node order: a spawn's start
// follows it because a child's pid, hence its node IDs, are higher. With
// dense gsns the count array is no longer than the graph; a log numbered
// past that, such as a corrupt one, takes a stable comparison sort.
func genOrder(events []Event, pend []pendingEv) []int32 {
	key := make([]uint64, len(events))
	var maxKey uint64
	for i := range events {
		ev, src := &events[i], pend[i].fromEv
		switch {
		case ev.Kind == logging.RecStart && src != nil && int(src.ID) < i && src.Kind == logging.RecSync:
			key[i] = key[src.ID]
		case ev.Kind == logging.RecExit && ev.Gsn == 0 && ev.Idx > 0:
			key[i] = key[i-1] | 1
		default:
			key[i] = 2 * ev.Gsn
		}
		maxKey = max(maxKey, key[i])
	}
	order := make([]int32, len(events))
	if maxKey > uint64(4*len(events)) {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
		return order
	}
	at := make([]int32, maxKey+2)
	for _, k := range key {
		at[k+1]++
	}
	for k := 1; k < len(at); k++ {
		at[k] += at[k-1]
	}
	for i, k := range key {
		order[at[k]] = int32(i)
		at[k]++
	}
	return order
}

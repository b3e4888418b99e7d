// Package parallel builds the parallel dynamic program dependence graph
// (§6.1) from per-process logs: synchronization nodes, synchronization
// edges (§6.2), and internal edges — one per executed synchronization unit,
// carrying the shared-variable READ/WRITE sets recorded at run time.
//
// It implements Lamport's happened-before partial order (§6's "→" operator)
// with vector clocks, giving O(P) comparisons between events, and exposes
// the ordering queries race detection (package race) and the controller's
// cross-process flowback need.
package parallel

import (
	"fmt"
	"sort"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/logging"
)

// EventID identifies a synchronization node globally.
type EventID int

// Event is one synchronization node of the parallel dynamic graph.
type Event struct {
	ID   EventID
	PID  int
	Idx  int // position among the process's sync events
	Op   logging.SyncOp
	Kind logging.Kind // RecSync, RecStart, or RecExit
	Obj  int
	Stmt ast.StmtID
	Gsn  uint64

	// From is the causal source event (synchronization edge tail), or -1.
	From EventID

	// Clock is the event's vector clock (len = number of processes).
	Clock []int
}

// InternalEdge is one internal edge: the events of a process between two
// consecutive synchronization nodes, with the shared variables read and
// written during it (§6.3's READ_SET/WRITE_SET).
type InternalEdge struct {
	ID       int
	PID      int
	Start    EventID // the sync node the edge begins at (-1 before RecStart)
	End      EventID // the sync node that terminated the edge
	Reads    *bitset.Set
	Writes   *bitset.Set
	StartRec int // record index in the process's book where the edge begins
	EndRec   int
}

// Graph is the parallel dynamic graph of one execution.
type Graph struct {
	Log    *logging.ProgramLog
	Events []*Event
	Edges  []*InternalEdge

	// VarNames optionally names each shared variable (indexed by
	// GlobalID); when set, race reports print names instead of raw IDs.
	VarNames []string

	// SyncEdges lists (from, to) event pairs (§6.2).
	SyncEdges [][2]EventID

	// procOff[pid] is the first global ID of process pid's events and
	// edges (both are contiguous per process in pid order, and each node
	// ends one edge); procOff[nProcs] is the count.
	procOff []int
	order   []*Event // the order the builder clocked the nodes
	nProcs  int
	nShared int
}

func join(dst, src []int) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// HappensBefore reports whether event a happened before event b (§6.1's
// n1 → n2 via vector clocks).
func (g *Graph) HappensBefore(a, b EventID) bool {
	if a == b {
		return false
	}
	ea, eb := g.Events[a], g.Events[b]
	return ea.Clock[ea.PID] <= eb.Clock[ea.PID] && !clockEqual(ea.Clock, eb.Clock)
}

func clockEqual(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EdgeHB implements §6.1's edge ordering: e1 → e2 iff n1 → n2 where n1 is
// e1's end node and n2 is e2's start node. A process's first edge has no
// start node; its events are ordered only through the process's own chain.
func (g *Graph) EdgeHB(e1, e2 *InternalEdge) bool {
	if e2.Start < 0 {
		return false // nothing precedes a process's initial edge
	}
	if e1.End == e2.Start {
		return true // same node: e1 flows directly into e2
	}
	return g.HappensBefore(e1.End, e2.Start)
}

// Simultaneous implements Definition 6.1: neither edge ordered before the
// other.
func (g *Graph) Simultaneous(e1, e2 *InternalEdge) bool {
	return !g.EdgeHB(e1, e2) && !g.EdgeHB(e2, e1)
}

// EdgesOf returns the internal edges of one process, in order: a window
// of Edges, so this is O(1) — it sits on the controller's cross-process
// resolution path.
func (g *Graph) EdgesOf(pid int) []*InternalEdge {
	if pid < 0 || pid >= g.nProcs {
		return nil
	}
	lo, hi := g.procOff[pid], g.procOff[pid+1]
	return g.Edges[lo:hi:hi]
}

// Order returns the nodes in the order the builder clocked them. For a
// graph from Build that is generation order — sync nodes by Gsn, each
// spawned process's start right after its spawn, each exit after its
// predecessor's spawned starts — the order race.Frontier needs. A graph a
// Builder finished has no recorded order (nil).
func (g *Graph) Order() []*Event { return g.order }

// NumProcs returns the number of processes.
func (g *Graph) NumProcs() int { return g.nProcs }

// NumShared returns the shared-variable universe size.
func (g *Graph) NumShared() int { return g.nShared }

// LastWriterBefore finds, for a read of shared variable gid on edge e, the
// most recent internal edge of another process that wrote gid and happened
// before e — the §6.3 cross-process data dependence. Returns nil when no
// ordered writer exists (the value came from initialization or a race).
func (g *Graph) LastWriterBefore(e *InternalEdge, gid int) *InternalEdge {
	var best *InternalEdge
	for _, cand := range g.Edges {
		if cand.ID == e.ID || !cand.Writes.Has(gid) {
			continue
		}
		if !g.EdgeHB(cand, e) {
			continue
		}
		if best == nil || g.EdgeHB(best, cand) {
			best = cand
		}
	}
	return best
}

// String renders the graph in the style of Fig 6.1 for golden tests.
func (g *Graph) String() string {
	var sb strings.Builder
	for pid := 0; pid < g.nProcs; pid++ {
		fmt.Fprintf(&sb, "P%d:", pid+1)
		for _, ev := range g.Events[g.procOff[pid]:g.procOff[pid+1]] {
			switch ev.Kind {
			case logging.RecStart:
				fmt.Fprintf(&sb, " start")
			case logging.RecExit:
				fmt.Fprintf(&sb, " exit")
			default:
				fmt.Fprintf(&sb, " %s", ev.Op)
			}
			if ev.From >= 0 {
				fmt.Fprintf(&sb, "(<-n%d)", ev.From)
			}
		}
		sb.WriteByte('\n')
	}
	edges := append([][2]EventID(nil), g.SyncEdges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i][0] < edges[j][0] })
	for _, e := range edges {
		a, b := g.Events[e[0]], g.Events[e[1]]
		fmt.Fprintf(&sb, "sync: P%d.%s -> P%d.%s\n", a.PID+1, a.Op, b.PID+1, opOrKind(b))
	}
	return sb.String()
}

func opOrKind(e *Event) string {
	if e.Kind == logging.RecStart {
		return "start"
	}
	return e.Op.String()
}

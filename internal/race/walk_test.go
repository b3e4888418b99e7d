package race

import (
	"fmt"
	"testing"

	"ppd/internal/bitset"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/mplgen"
	"ppd/internal/parallel"
	"ppd/internal/workloads"
)

// walkCase is one logged run for the walk-order tests.
type walkCase struct {
	name string
	g    *parallel.Graph
	mask *bitset.Set
}

// spawnAndExit is a racy program whose main exits right after its last
// spawn, without joining: the walk must reach the second worker before
// main's exit, or the first worker's edges retire before the second
// worker's are checked against them.
var spawnAndExit = &workloads.Workload{Name: "spawn-and-exit", Src: `
shared x;
func w() { x = x + 1; }
func main() { spawn w(); spawn w(); }`}

// walkCases runs the standard workloads, the racy, guarded and
// message-passing shapes, a main that exits without joining, and
// generated racy programs under several seeds and quanta.
func walkCases(t *testing.T) []walkCase {
	t.Helper()
	wls := append(workloads.Standard(),
		spawnAndExit,
		workloads.RacyCounter(3, 10, false),
		workloads.RacyCounter(3, 10, true),
		workloads.GuardedCounter(3, 10),
		workloads.RacyTicker(3, 10),
		workloads.Relay(3, 10),
		workloads.TokenRing(3, 10),
		workloads.Sharded(3, 10),
	)
	for seed := int64(0); seed < 6; seed++ {
		wls = append(wls, &workloads.Workload{
			Name: fmt.Sprintf("mplgen-racy-%d", seed),
			Src:  mplgen.Generate(seed, mplgen.RacyConfig()),
		})
	}
	var cases []walkCase
	for _, wl := range wls {
		for _, run := range []struct {
			seed    int64
			quantum int
		}{{1, 1}, {2, 3}, {3, 7}} {
			g, art := buildGraph(t, wl, eblock.DefaultConfig(), run.quantum, run.seed)
			cases = append(cases, walkCase{
				name: fmt.Sprintf("%s/s%d_q%d", wl.Name, run.seed, run.quantum),
				g:    g,
				mask: staticMask(art),
			})
		}
	}
	return cases
}

// detectIn runs the frontier over g's nodes in the given order.
func detectIn(g *parallel.Graph, order []*parallel.Event, mask *bitset.Set) string {
	f := NewFrontier(g.NumShared(), mask, g.VarNames, nil)
	for _, ev := range order {
		e := g.Edges[ev.ID]
		var start *parallel.Event
		if e.Start >= 0 {
			start = g.Events[e.Start]
		}
		f.OnSync(ev, e, start)
	}
	return renderAll(Canonicalize(f.Races()))
}

// scaleGsns multiplies every gsn in pl by k, in place: k > 1 makes the
// gsns sparse, and scaling back by 1/k restores them.
func scaleGsns(pl *logging.ProgramLog, mul, div uint64) {
	for _, book := range pl.Books {
		for _, r := range book.Records {
			r.Gsn = r.Gsn * mul / div
			r.FromGsn = r.FromGsn * mul / div
		}
	}
}

// TestWalkOrder pins the order parallel.Build clocks the nodes in, which
// the graph records (Graph.Order) and Detect replays: every node once,
// each after its in-process predecessor and its From node, a spawned
// process's start right after its spawn, and each node ending the edge
// Detect hands the frontier. The comparison-sort fallback for gsns past
// the node count yields the same order, and the frontier fed this order
// matches Naive, masked and unmasked.
func TestWalkOrder(t *testing.T) {
	for _, tc := range walkCases(t) {
		g := tc.g
		order := g.Order()
		if len(order) != len(g.Events) {
			t.Fatalf("%s: the build clocked %d of %d nodes", tc.name, len(order), len(g.Events))
		}
		pos := make([]int, len(g.Events))
		for i := range pos {
			pos[i] = -1
		}
		for i, ev := range order {
			if pos[ev.ID] >= 0 {
				t.Fatalf("%s: node %d clocked twice", tc.name, ev.ID)
			}
			pos[ev.ID] = i
		}
		for _, ev := range g.Events {
			if e := g.Edges[ev.ID]; e.End != ev.ID {
				t.Fatalf("%s: Edges[%d] ends at node %d", tc.name, ev.ID, e.End)
			}
			if ev.Idx > 0 && pos[ev.ID-1] > pos[ev.ID] {
				t.Errorf("%s: node %d clocked before its predecessor", tc.name, ev.ID)
			}
			if ev.From >= 0 && pos[ev.From] > pos[ev.ID] {
				t.Errorf("%s: node %d clocked before its From node %d", tc.name, ev.ID, ev.From)
			}
			if ev.Kind == logging.RecStart && ev.From >= 0 && pos[ev.From]+1 != pos[ev.ID] {
				t.Errorf("%s: start node %d not right after its spawn %d", tc.name, ev.ID, ev.From)
			}
		}

		scaleGsns(g.Log, 1000, 1)
		sparse := parallel.Build(g.Log, g.NumShared())
		scaleGsns(g.Log, 1, 1000)
		for i, ev := range sparse.Order() {
			if ev.ID != order[i].ID {
				t.Fatalf("%s: sparse gsns clock node %d at %d, dense at %d", tc.name, ev.ID, i, pos[ev.ID])
			}
		}

		want := renderAll(Naive(g))
		for _, m := range []*bitset.Set{nil, tc.mask} {
			if got := detectIn(g, order, m); got != want {
				t.Errorf("%s mask %v: the build's order diverges from Naive\ngot:\n%swant:\n%s", tc.name, m, got, want)
			}
		}
	}
}

// TestWalkOrderMutations shows the order is load-bearing: the frontier
// fed the nodes in pid order, with each spawned process's start node
// deferred to just before its process's next node, or with a parent's
// exit ahead of its last spawn's child, loses races Naive finds — a
// process the frontier has not reached yet cannot hold edges back from
// retiring. (Moving start nodes earlier, even before their spawns, stays
// sound: a process reached early only holds edges back longer.)
func TestWalkOrderMutations(t *testing.T) {
	cases := walkCases(t)
	mutations := map[string]func(*parallel.Graph) []*parallel.Event{
		"pid order": func(g *parallel.Graph) []*parallel.Event { return g.Events },
		"late starts": func(g *parallel.Graph) []*parallel.Event {
			var order []*parallel.Event
			for _, ev := range g.Order() {
				if ev.Kind == logging.RecStart && ev.From >= 0 && int(ev.ID)+1 < len(g.Events) && g.Events[ev.ID+1].PID == ev.PID {
					continue // emitted with its successor below
				}
				if ev.Idx == 1 && g.Events[ev.ID-1].From >= 0 {
					order = append(order, g.Events[ev.ID-1])
				}
				order = append(order, ev)
			}
			return order
		},
		"exit before child": func(g *parallel.Graph) []*parallel.Event {
			order := append([]*parallel.Event(nil), g.Order()...)
			for i := 1; i+1 < len(order); i++ {
				ev := order[i+1]
				if ev.Kind == logging.RecExit && order[i].Kind == logging.RecStart && order[i-1].PID == ev.PID {
					order[i], order[i+1] = ev, order[i]
				}
			}
			return order
		},
	}
	for name, mutate := range mutations {
		diverged := 0
		for _, tc := range cases {
			if detectIn(tc.g, mutate(tc.g), nil) != renderAll(Naive(tc.g)) {
				diverged++
			}
		}
		if diverged == 0 {
			t.Errorf("%s: the frontier matched Naive on all %d runs; the order would not matter", name, len(cases))
		}
		t.Logf("%s: diverges from Naive on %d of %d runs", name, diverged, len(cases))
	}
}

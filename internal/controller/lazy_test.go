package controller

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/source"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// lazyAnswers is every answer a controller gives that reads the parallel
// graph, rendered for comparison.
type lazyAnswers struct {
	races, report, graph, deadlock string
	resolved                       []string
}

// resolveQuery is one ResolveInitial question.
type resolveQuery struct{ pid, idx, gid int }

// resolveQueries asks about every shared scalar in the first few
// intervals of every process.
func resolveQueries(c *Controller) []resolveQuery {
	var out []resolveQuery
	for pid := range c.Log.Books {
		idxs := prelogIndices(c, pid)
		for k, idx := range idxs {
			if k == 4 {
				break
			}
			for gid, def := range c.Art.Prog.Globals {
				if def.Kind == bytecode.GlobalVar {
					out = append(out, resolveQuery{pid, idx, gid})
				}
			}
		}
	}
	return out
}

func renderRef(ref *CrossRef) string {
	if ref == nil {
		return "nil"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "P%d e%d @%d racy=%t with", ref.PID, ref.Edge.ID, ref.PrelogIdx, ref.Racy)
	for _, e := range ref.RacyWith {
		fmt.Fprintf(&sb, " e%d", e.ID)
	}
	return sb.String()
}

func renderRaces(rs []*race.Race) string {
	var sb strings.Builder
	for _, r := range rs {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestControllerLazyGraph pins the parallel graph's build on first need.
// On a fresh controller, goroutines ask Races, RaceReport, Parallel,
// ResolveInitial and DeadlockReport at once: the graph is built once (one
// pointer), the detector runs once, and every answer equals a sequential
// controller's, which asked for races first. A flowback-first session
// builds the graph without the detector (race.runs stays 0), and its
// later Races, replayed from the built graph, equal the races-first ones.
func TestControllerLazyGraph(t *testing.T) {
	wl := workloads.RacyTicker(3, 8)
	art, err := compile.Compile(source.NewFile(wl.Name, wl.Src), compile.Opts{Config: eblock.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: 3, Seed: 1})
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}

	seq := fromRun(art, v, Config{})
	want := lazyAnswers{races: renderRaces(seq.Races()), report: seq.RaceReport(), graph: seq.Parallel().String(), deadlock: seq.DeadlockReport()}
	queries := resolveQueries(seq)
	for _, q := range queries {
		want.resolved = append(want.resolved, renderRef(seq.ResolveInitial(q.pid, q.idx, q.gid)))
	}
	resolved := 0
	for _, r := range want.resolved {
		if r != "nil" {
			resolved++
		}
	}
	if want.races == "" || resolved == 0 {
		t.Fatalf("%s must race and resolve shared reads (%d of %d queries resolved)", wl.Name, resolved, len(queries))
	}
	t.Logf("%d races, %d of %d ResolveInitial queries resolved", strings.Count(want.races, "\n"), resolved, len(queries))

	sink := obs.New()
	c := fromRun(art, v, Config{Obs: sink})
	const workers = 8
	graphs := make([]*parallel.Graph, workers)
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			steps := []func(){
				func() {
					if got := renderRaces(c.Races()); got != want.races {
						t.Errorf("worker %d: Races differ:\n%s\nwant:\n%s", k, got, want.races)
					}
				},
				func() {
					if got := c.RaceReport(); got != want.report {
						t.Errorf("worker %d: RaceReport differs", k)
					}
				},
				func() {
					graphs[k] = c.Parallel()
					if got := graphs[k].String(); got != want.graph {
						t.Errorf("worker %d: Parallel().String() differs", k)
					}
				},
				func() {
					for i, q := range queries {
						if got := renderRef(c.ResolveInitial(q.pid, q.idx, q.gid)); got != want.resolved[i] {
							t.Errorf("worker %d: ResolveInitial%v = %s, want %s", k, q, got, want.resolved[i])
						}
					}
				},
				func() {
					if got := c.DeadlockReport(); got != want.deadlock {
						t.Errorf("worker %d: DeadlockReport differs", k)
					}
				},
			}
			for i := range steps {
				steps[(i+k)%len(steps)]()
			}
		}()
	}
	wg.Wait()
	for k, g := range graphs {
		if g != graphs[0] {
			t.Errorf("worker %d saw graph %p, worker 0 %p: built more than once", k, g, graphs[0])
		}
	}
	if n := sink.Snapshot().Counter("race.runs"); n != 1 {
		t.Errorf("race.runs = %d, want 1", n)
	}

	fsink := obs.New()
	fc := fromRun(art, v, Config{Obs: fsink})
	for i, q := range queries {
		if got := renderRef(fc.ResolveInitial(q.pid, q.idx, q.gid)); got != want.resolved[i] {
			t.Errorf("flowback-first: ResolveInitial%v = %s, want %s", q, got, want.resolved[i])
		}
	}
	if got := fc.DeadlockReport(); got != want.deadlock {
		t.Error("flowback-first: DeadlockReport differs")
	}
	if n := fsink.Snapshot().Counter("race.runs"); n != 0 {
		t.Errorf("flowback-first: race.runs = %d before any race query, want 0", n)
	}
	if fsink.Snapshot().Timer("debug.graph").Count != 1 {
		t.Error("flowback-first: the graph build is not observed as debug.graph")
	}
	g := fc.Parallel()
	if got := renderRaces(fc.Races()); got != want.races {
		t.Errorf("flowback-first: later Races differ:\n%s\nwant:\n%s", got, want.races)
	}
	if fc.Parallel() != g {
		t.Error("flowback-first: Races rebuilt the graph")
	}
	if got := fc.RaceReport(); got != want.report {
		t.Error("flowback-first: later RaceReport differs")
	}
}

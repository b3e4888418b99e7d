package controller

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/debug"
	"testing"

	"ppd/internal/compile"
	"ppd/internal/dynpdg"
	"ppd/internal/eblock"
	"ppd/internal/mplgen"
	"ppd/internal/source"
	"ppd/internal/trace"
	"ppd/internal/vm"
	"ppd/internal/workloads"
)

// graphGolden holds, per program set and scheduling quantum, the hash of
// every interval's dynamic graph and fragment as graphHash writes them.
var graphGolden = map[string]string{
	"matmul/q1":       "0359fd4a15888b284e8b3e6a2175129c",
	"matmul/q3":       "0359fd4a15888b284e8b3e6a2175129c",
	"matmul/q7":       "0359fd4a15888b284e8b3e6a2175129c",
	"prodcons/q1":     "98a9b5a72d06c566461db5a6630241bc",
	"prodcons/q3":     "98a9b5a72d06c566461db5a6630241bc",
	"prodcons/q7":     "98a9b5a72d06c566461db5a6630241bc",
	"tokenring/q1":    "833c7b34bcffa5aedf2038aaa2a71d9f",
	"tokenring/q3":    "833c7b34bcffa5aedf2038aaa2a71d9f",
	"tokenring/q7":    "833c7b34bcffa5aedf2038aaa2a71d9f",
	"divide/q1":       "e85d0e5fbc266537d6ecbbd78ed58e8f",
	"divide/q3":       "e85d0e5fbc266537d6ecbbd78ed58e8f",
	"divide/q7":       "e85d0e5fbc266537d6ecbbd78ed58e8f",
	"histo/q1":        "3fab268c968e02eba405e27481156a64",
	"histo/q3":        "3fab268c968e02eba405e27481156a64",
	"histo/q7":        "3fab268c968e02eba405e27481156a64",
	"racy-counter/q1": "945cd44312e44fed9957eae475fefcd1",
	"racy-counter/q3": "af8cf11b3b6b20bffb7f6820e8c6d539",
	"racy-counter/q7": "402a15071ea9f2ffb2870c42808c5b15",
	"gen-default/q1":  "6a53d9fdae727002b462c4bf2c71fb5e",
	"gen-default/q3":  "6a53d9fdae727002b462c4bf2c71fb5e",
	"gen-default/q7":  "6a53d9fdae727002b462c4bf2c71fb5e",
	"gen-racy/q1":     "69854fb2985e0bc4f18734459a164ca1",
	"gen-racy/q3":     "6dc9b805bdeb056753b2edb394993bcd",
	"gen-racy/q7":     "fda2d89f54a44ba6f26b29e29594a9d3",
	"gen-parallel/q1": "5464e014c6c8af2c8083fb23af4258c7",
	"gen-parallel/q3": "df1e4accaecc205bb0f7c19283eb88f6",
	"gen-parallel/q7": "c1cead78727b3528c472d75868dee558",
}

// TestGraphGolden pins the meaning of the dynamic graphs flowback builds,
// byte for byte: for every interval of every process, the graph's String,
// each node and edge value in order, and the fragment rendered from its
// last node at depth 6 are hashed, and the hash per program set and
// quantum must equal the checked-in one. The sets are the standard shapes
// at test size, the racy counter, and 30 programs of each generator
// configuration. TestGraphEdgeOrderDeterministic compares two builds of
// one code path; this compares against a fixed answer, so a rewrite of
// the builder or the renderer that changes any label, value, edge or edge
// order fails here.
func TestGraphGolden(t *testing.T) {
	type programs struct {
		name string
		srcs []string
	}
	var sets []programs
	for _, wl := range []*workloads.Workload{
		workloads.Matmul(4),
		workloads.ProdCons(20),
		workloads.TokenRing(3, 4),
		workloads.Divide(5),
		workloads.Histo(4),
		workloads.RacyCounter(3, 4, false),
	} {
		sets = append(sets, programs{wl.Name, []string{wl.Src}})
	}
	for _, gen := range []struct {
		name string
		cfg  mplgen.Config
	}{
		{"gen-default", mplgen.DefaultConfig()},
		{"gen-racy", mplgen.RacyConfig()},
		{"gen-parallel", mplgen.ParallelConfig()},
	} {
		set := programs{name: gen.name}
		for seed := int64(0); seed < 30; seed++ {
			set.srcs = append(set.srcs, mplgen.Generate(seed, gen.cfg))
		}
		sets = append(sets, set)
	}
	for _, set := range sets {
		for _, q := range []int{1, 3, 7} {
			key := fmt.Sprintf("%s/q%d", set.name, q)
			h := sha256.New()
			graphs := 0
			for _, src := range set.srcs {
				art, err := compile.Compile(source.NewFile(set.name, src), compile.Opts{Config: eblock.DefaultConfig()})
				if err != nil {
					t.Fatalf("%s: compile: %v", key, err)
				}
				v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Quantum: q, Seed: 1})
				_ = v.Run() // a failed run's intervals are graphs too
				c := fromRun(art, v, Config{})
				for pid := 0; pid < c.NumProcs(); pid++ {
					for _, idx := range prelogs(c, pid) {
						g, err := c.Graph(pid, idx)
						if err != nil {
							t.Fatalf("%s pid %d interval %d: %v", key, pid, idx, err)
						}
						fmt.Fprintf(h, "pid %d interval %d\n", pid, idx)
						graphHash(h, g)
						graphs++
					}
				}
			}
			got := hex.EncodeToString(h.Sum(nil))[:32]
			if want := graphGolden[key]; got != want {
				t.Errorf("%s: %d graphs hash to %s, golden %s", key, graphs, got, want)
			}
		}
	}
}

// graphHash writes everything a flowback user can see of g into h.
func graphHash(h hash.Hash, g *dynpdg.Graph) {
	h.Write([]byte(g.String()))
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "%+v\n", *n)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(h, "%+v\n", *e)
	}
	if last := g.LastNode(); last != nil {
		h.Write([]byte(RenderFragment(g, last.ID, 6)))
	}
}

// maxGraphSample caps the intervals one graph-build sweep covers.
const maxGraphSample = 64

// graphJob is one emulated interval: its trace and root function.
type graphJob struct {
	trace *trace.Buffer
	fn    string
}

// graphSample emulates up to maxGraphSample intervals of a workload,
// processes in order and each process's intervals in order, and returns
// their traces for Build to consume again and again.
func graphSample(tb testing.TB, wl *workloads.Workload) (*compile.Artifacts, []graphJob) {
	tb.Helper()
	art, _, c := loggedController(tb, whatIfProgram{wl.Name, wl.Src}, Config{CacheBound: -1})
	var jobs []graphJob
	for pid := 0; pid < c.NumProcs() && len(jobs) < maxGraphSample; pid++ {
		for _, idx := range prelogs(c, pid) {
			if len(jobs) == maxGraphSample {
				break
			}
			g, err := c.Graph(pid, idx)
			if err != nil {
				tb.Fatalf("%s pid %d interval %d: %v", wl.Name, pid, idx, err)
			}
			jobs = append(jobs, graphJob{c.Result(pid, idx).Trace, g.Fn})
		}
	}
	return art, jobs
}

// buildSample is flowback's graph step on a cache miss, minus emulation:
// Build each sampled interval's graph and render the fragment under its
// last node at the depth the repo benchmark's walk renders.
func buildSample(art *compile.Artifacts, jobs []graphJob) {
	for _, j := range jobs {
		g := dynpdg.Build(art, j.trace, j.fn)
		if last := g.LastNode(); last != nil {
			RenderFragment(g, last.ID, 4)
		}
	}
}

// BenchmarkGraphBuild is E25's microbenchmark: one op builds and renders
// the graphs of every sampled interval of a standard workload
// (graphs/op of them), so allocs/op is the exact per-sweep count
// TestGraphAllocsCeiling pins.
func BenchmarkGraphBuild(b *testing.B) {
	for _, wl := range workloads.Standard() {
		b.Run(wl.Name, func(b *testing.B) {
			art, jobs := graphSample(b, wl)
			events := 0
			for _, j := range jobs {
				events += j.trace.Len()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildSample(art, jobs)
			}
			b.ReportMetric(float64(len(jobs)), "graphs/op")
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// TestGraphAllocsCeiling gates the allocations of flowback's graph step:
// the exact allocs of one BenchmarkGraphBuild sweep per standard workload.
func TestGraphAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	// The builder pool is per P and emptied by a collection: with either
	// free to happen mid-measurement, a build may start from a new builder.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ceiling := map[string]float64{"matmul": 67, "prodcons": 42, "tokenring": 77, "divide": 1071, "histo": 29}
	for _, wl := range workloads.Standard() {
		art, jobs := graphSample(t, wl)
		got := testing.AllocsPerRun(3, func() { buildSample(art, jobs) })
		checkCeiling(t, fmt.Sprintf("%s graph build (%d graphs)", wl.Name, len(jobs)), got, ceiling[wl.Name])
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks the
// output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at tiny size, untraced and traced, at
// GOMAXPROCS 1 and 2: every oracle check must pass with no failed
// operation, the output must carry exactly the metrics BENCHMARK.json
// registers, the layer self times plus the residual must add up to the
// op wall time, and the work counts must repeat exactly for a seed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(traced bool) map[string]string {
		m := map[string]string{}
		if traced {
			for _, x := range spec.PerLayer {
				m[x.Name] = x.Unit
			}
		} else {
			for _, x := range spec.EndToEnd {
				m[x.Name] = x.Unit
			}
		}
		return m
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, wl := range spec.Workloads {
			var counts any
			for _, traced := range []bool{false, true} {
				res, info, err := run(runConfig{workload: wl.Name, seed: 7, seconds: 0.3, traced: traced,
					size: tinySize, workDir: t.TempDir()})
				if err != nil {
					t.Fatalf("%s GOMAXPROCS=%d traced=%t: %v", wl.Name, procs, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s GOMAXPROCS=%d traced=%t: correct=%t failed=%d attempted=%d",
						wl.Name, procs, traced, res.Correct, res.Failed, res.Attempted)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if w := want(traced); !reflect.DeepEqual(got, w) {
					t.Errorf("%s traced=%t: metrics %v, want %v", wl.Name, traced, keys(got), keys(w))
				}
				if traced {
					sum := res.Metrics["op.residual_ms"].Value
					for _, l := range layers {
						sum += res.Metrics["self."+l+"_ms"].Value
					}
					if wall := res.Metrics["op.wall_ms"].Value; math.Abs(sum-wall) > 1e-6*math.Max(1, wall) {
						t.Errorf("%s: layer self times + residual = %v ms, op wall = %v ms", wl.Name, sum, wall)
					}
				}
				if counts == nil {
					counts = info["counts"]
				} else if !reflect.DeepEqual(counts, info["counts"]) {
					t.Errorf("%s GOMAXPROCS=%d: work counts %v, then %v for the same seed",
						wl.Name, procs, counts, info["counts"])
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

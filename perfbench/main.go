// Command perfbench is PPD's benchmark: three closed-loop workloads of one
// debugging operation each (triage, flowback, serve), timed from outside
// through the public API and checked against independent oracles. See
// README.md for the workloads, the metrics and the layer map.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload triage --seed 1 --seconds 20 --trace 0
//	perfbench --report 5 --workload triage,flowback --seconds 20
//
// The last line of standard output is the result: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). The line before it records the run's environment and the
// work counts that must repeat exactly for a seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// errOut receives diagnostics (oracle mismatches, failed operations).
var errOut io.Writer = os.Stderr

func newWorkload(name string, sz size) (workload, error) {
	switch name {
	case "triage":
		return &triage{sz: sz}, nil
	case "flowback":
		return &flowback{sz: sz}, nil
	case "serve":
		return &serve{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want triage, flowback or serve)", name)
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: triage, flowback or serve (comma-separated with --report)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs and the operation sequence")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		chrome  = flag.String("chrome-trace", "", "with --trace 1, write the spans as Chrome trace-event JSON here")
		report  = flag.Int("report", 0, "steadiness report: run each workload this many times with seeds seed, seed+1, ...")
	)
	flag.Parse()
	if *report > 0 {
		if err := steadiness(strings.Split(*wl, ","), *seed, *report, os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// The runs' temporary artifact caches go under TMPDIR, which run.sh
	// points into the checkout's .bench_build/.
	res, info, err := run(runConfig{
		workload: *wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
		size: fullSize, traceOut: *chrome,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(os.Stderr, res)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// printSummary writes the result for a reader: every metric with its
// unit, and the failed-op share.
func printSummary(w io.Writer, res *result) {
	names := sortedKeys(res.Metrics)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-28s %14.4f %% (%d of %d)\n", "failed_ops", 100*float64(res.Failed)/float64(res.Attempted),
		res.Failed, res.Attempted)
}

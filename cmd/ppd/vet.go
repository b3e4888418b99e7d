package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ppd/internal/analysis"
	"ppd/internal/compile"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/source"
)

// runVet is `ppd vet`: only the preparatory phase plus the
// static-analysis passes, no execution, no logs. It reports whether a
// -strict run found warnings, which main maps to exit status 1 — the
// contract `make vet-mpl` and CI rely on.
func runVet(args []string, w io.Writer) (strictFailed bool, err error) {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	strict := fs.Bool("strict", false, "exit non-zero when any warning is reported")
	timings := fs.Bool("timings", false, "print per-pass timings after the diagnostics")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return false, fmt.Errorf("vet: need one source file")
	}
	f, err := loadFile(fs.Arg(0))
	if err != nil {
		return false, err
	}
	// Compile under the same sink so -timings can report the abstract
	// interpretation pass, which runs in the preparatory phase (its facts
	// feed fusion certificates there) and is only reused by vet.
	sink := obs.New()
	art, err := compile.Compile(f, compile.Opts{Config: eblock.DefaultConfig(), Sink: sink})
	if err != nil {
		return false, err
	}
	res := art.Vet(sink)
	if *jsonOut {
		data, jerr := res.JSON()
		if jerr != nil {
			return false, jerr
		}
		fmt.Fprintf(w, "%s\n", data)
	} else {
		fmt.Fprint(w, res.Text())
	}
	if *timings && !*jsonOut {
		snap := sink.Snapshot()
		// The abstract interpreter ran once in the preparatory phase
		// (compile.absint) or, on a facts-less artifact, inside Analyze
		// (analysis.absint); report whichever scope fired.
		for _, scope := range []string{"compile.absint", "analysis.absint"} {
			if ts, ok := snap.Timers[scope]; ok {
				fmt.Fprintf(w, "pass %-10s %v\n", "absint", ts.Total())
			}
		}
		for _, pass := range analysis.PassNames() {
			if ts, ok := snap.Timers["analysis."+pass]; ok {
				fmt.Fprintf(w, "pass %-10s %v\n", pass, ts.Total())
			}
		}
		if ts, ok := snap.Timers["analysis.total"]; ok {
			fmt.Fprintf(w, "pass %-10s %v\n", "total", ts.Total())
		}
	}
	warnings, _ := res.Counts()
	return *strict && warnings > 0, nil
}

// loadFile reads the source file at path.
func loadFile(path string) (*source.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return source.NewFile(path, string(data)), nil
}

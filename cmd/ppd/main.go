// Command ppd is the Parallel Program Debugger driver. It exposes the
// paper's three phases as subcommands:
//
//	ppd compile prog.mpl            preparatory phase: report the artifacts
//	ppd dump prog.mpl               program database, e-block plan, bytecode
//	ppd run prog.mpl [flags]        execution phase (optionally logged)
//	ppd debug prog.mpl [flags]      run logged, then interactive flowback
//	ppd races prog.mpl [flags]      run logged, then race detection
//	ppd watch prog.mpl [flags]      run with the online race pipeline attached
//	ppd vet prog.mpl [flags]        static analysis only: report diagnostics
//	ppd stats prog.mpl [flags]      all three phases, then the obs snapshot
//
// Example:
//
//	ppd debug examples/flowback/bug.mpl
//	ppd races testdata/racy.mpl -sweep 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"ppd"
	"ppd/internal/bytecode"
	"ppd/internal/eblock"
	"ppd/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var (
		failed bool // the command's verdict is "no": a race, or a -strict warning
		err    error
	)
	switch cmd {
	case "compile":
		err = cmdCompile(args)
	case "dump":
		err = cmdDump(args)
	case "run":
		failed, err = cmdRun(args)
	case "debug":
		err = cmdDebug(args)
	case "races":
		failed, err = runRaces(args, os.Stdout)
	case "watch":
		err = cmdWatch(args)
	case "vet":
		failed, err = runVet(args, os.Stdout)
	case "stats":
		err = cmdStats(args)
	case "serve":
		err = cmdServe(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ppd: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppd: %v\n", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: ppd <command> [flags] file.mpl
commands:
  compile   run the preparatory phase and summarize its artifacts
            (flags: -cache-dir DIR -workers N)
  dump      print the program database, e-block plan, and bytecode
  run       execute the program (flags: -seed -quantum -mode run|log|trace
            -first-race to abort at the first online-detected race)
  debug     execute logged, then start the interactive flowback debugger
  races     execute logged, then detect races (flags: -seed -sweep N)
  watch     execute with the online analysis pipeline attached: races are
            reported while the program is still running (flags: -seed
            -quantum -first-race -batch N)
  vet       static analysis: race candidates, sync lints, uninitialized
            reads, dead stores (flags: -json -strict -timings)
  stats     run all three phases and print the observability snapshot
            (flags: -seed -quantum -json -trace -monitor -cache-dir DIR); with
            -ops, profile dispatch instead: opcode / opcode-pair /
            superinstruction execution counts (feeds the fusion table)
  serve     start the multi-session debugging daemon (flags: -addr
            -cache-dir DIR -ttl -max-sessions -workers -queue); with
            -smoke, self-test one session end-to-end and exit
`)
}

// compileFile runs the preparatory phase over the file at path with the
// default e-block configuration, through the persistent artifact cache
// when opts.CacheDir or PPD_CACHE_DIR names one.
func compileFile(path string, opts ppd.Options) (*ppd.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ppd.CompileOpts(path, string(data), eblock.DefaultConfig(), opts)
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", os.Getenv("PPD_CACHE_DIR"),
		"persistent artifact cache directory (empty disables; default $PPD_CACHE_DIR)")
	workers := fs.Int("workers", 0, "pipeline fan-out width (0 = GOMAXPROCS, 1 = sequential)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("compile: need one source file")
	}
	prog, err := compileFile(fs.Arg(0), ppd.Options{CacheDir: *cacheDir, Workers: *workers})
	if err != nil {
		return err
	}
	// A cache hit returns a shallow artifact; the summary below needs the
	// e-block plan, so rebuild the semantic layers (codegen is skipped).
	art := prog.Artifacts()
	if err := art.Hydrate(); err != nil {
		return err
	}
	fmt.Printf("compiled %s:\n", fs.Arg(0))
	fmt.Printf("  functions: %d, globals: %d, instructions: %d\n",
		len(art.Prog.Funcs), len(art.Prog.Globals), art.Prog.NumInstrs())
	fmt.Printf("  e-blocks: %d (%d inlined function(s))\n",
		len(art.Plan.Blocks), len(art.Plan.Inlined))
	units := 0
	for _, f := range art.Prog.Funcs {
		units += len(f.Units)
	}
	fmt.Printf("  shared-prelog sites: %d\n", units)
	if *cacheDir != "" {
		snap := prog.CompileStats()
		fmt.Printf("  cache: %d hit(s), %d miss(es), %d byte(s)\n",
			snap.Counters["compile.cache.hits"],
			snap.Counters["compile.cache.misses"],
			snap.Counters["compile.cache.bytes"])
	}
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	code := fs.Bool("code", false, "include bytecode disassembly")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("dump: need one source file")
	}
	prog, err := compileFile(fs.Arg(0), ppd.Options{})
	if err != nil {
		return err
	}
	// A cache hit returns a shallow artifact without the program database.
	art := prog.Artifacts()
	if err := art.Hydrate(); err != nil {
		return err
	}
	fmt.Print(art.DB.Dump())
	if *code {
		fmt.Print(art.Prog.Disasm())
	}
	return nil
}

func vmFlags(fs *flag.FlagSet) (seed *int64, quantum *int) {
	seed = fs.Int64("seed", 0, "scheduler seed (0 = round-robin)")
	quantum = fs.Int("quantum", 40, "instructions per scheduling slice")
	return
}

// cmdRun is `ppd run`. raced reports that -first-race found a race, which
// main maps to exit status 1.
func cmdRun(args []string) (raced bool, err error) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed, quantum := vmFlags(fs)
	mode := fs.String("mode", "run", "execution mode: run, log, or trace")
	firstRace := fs.Bool("first-race", false,
		"monitor the run online and cancel it at the first race (implies -mode log; exits 1 on a race)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return false, fmt.Errorf("run: need one source file")
	}
	prog, err := compileFile(fs.Arg(0), ppd.Options{})
	if err != nil {
		return false, err
	}
	opts := ppd.Options{Seed: *seed, Quantum: *quantum, Output: os.Stdout}
	if *firstRace {
		return runFirstRace(prog, opts)
	}
	switch *mode {
	case "run":
		return false, prog.Run(opts)
	case "log":
		exec, err := prog.RunLoggedContext(context.Background(), opts)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "[log: %d process(es), %d bytes]\n",
			exec.Log().NumProcs(), exec.Log().SizeBytes())
		return false, exec.Err()
	case "trace":
		// The full trace is the E2 baseline the incremental log is measured
		// against; the public API has no such mode, so drive the VM itself.
		v := vm.New(prog.Artifacts().Prog, vm.Options{
			Mode: vm.ModeFullTrace, Seed: *seed, Quantum: *quantum, Output: os.Stdout,
		})
		rerr := v.Run()
		fmt.Fprintf(os.Stderr, "[trace: %d bytes]\n", v.Trace.SizeBytes())
		return false, rerr
	default:
		return false, fmt.Errorf("run: unknown mode %q", *mode)
	}
}

// runFirstRace is `ppd run -first-race`: the run carries the online
// pipeline and is cancelled the moment the frontier detector reports a
// race — a long racy execution terminates in a small fraction of its full
// runtime, with the triggering race(s) reported.
func runFirstRace(prog *ppd.Program, opts ppd.Options) (raced bool, err error) {
	opts.StopAtFirstRace = true
	exec, err := prog.RunLoggedContext(context.Background(), opts)
	if err != nil {
		return false, err
	}
	switch {
	case exec.StoppedAtRace():
		fmt.Fprintf(os.Stderr, "[run cancelled at first race]\n")
	case len(exec.OnlineRaces()) > 0:
		// A short run can complete before the cancellation lands; the
		// races are still the online pipeline's.
		fmt.Fprintf(os.Stderr, "[run completed before cancellation]\n")
	default:
		fmt.Fprintf(os.Stderr, "[run completed race-free under this schedule]\n")
		return false, nil
	}
	fmt.Fprint(os.Stderr, exec.OnlineRaceReport())
	return true, nil
}

// cmdWatch runs the program with the online analysis pipeline attached:
// each race is printed as the frontier detector finds it — while the
// program is still producing records — and the summary reports the final
// canonical race set (byte-identical to `ppd races` on the same seed and
// quantum) plus the pipeline's frontier counters.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	seed, quantum := vmFlags(fs)
	firstRace := fs.Bool("first-race", false, "cancel the run at the first race")
	batch := fs.Int("batch", 0, "tee batch size in records (0 = default)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("watch: need one source file")
	}
	prog, err := compileFile(fs.Arg(0), ppd.Options{})
	if err != nil {
		return err
	}
	exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{
		Seed: *seed, Quantum: *quantum, Output: os.Stdout,
		Monitor: true, StopAtFirstRace: *firstRace, StreamBatch: *batch,
		OnRace: func(ev ppd.RaceEvent) { fmt.Printf("[race] %s\n", ev.String()) },
	})
	if err != nil {
		return err
	}
	res := exec.OnlineResult()
	if exec.StoppedAtRace() {
		fmt.Println("[run cancelled at first race]")
	}
	fmt.Print(exec.OnlineRaceReport())
	fmt.Printf("[stream: %d batch(es), %d event(s), frontier highwater %d, %d retired, %d race report(s) online]\n",
		res.Batches, res.Events, res.Highwater, res.Retired, res.Online)
	return nil
}

func cmdDebug(args []string) error {
	fs := flag.NewFlagSet("debug", flag.ExitOnError)
	seed, quantum := vmFlags(fs)
	breakAt := fs.Int("break", 0, "halt all processes at statement sN (see `ppd dump`)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("debug: need one source file")
	}
	prog, err := compileFile(fs.Arg(0), ppd.Options{})
	if err != nil {
		return err
	}
	exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{
		Seed: *seed, Quantum: *quantum, Output: os.Stdout, BreakAt: *breakAt,
	})
	if err != nil {
		return err
	}
	if rerr := exec.Err(); rerr != nil {
		fmt.Fprintf(os.Stderr, "[execution halted: %v]\n", rerr)
	}
	if exec.AtBreakpoint() {
		fmt.Fprintf(os.Stderr, "[halted at breakpoint s%d]\n", *breakAt)
	}
	sess, err := exec.Debugger()
	if err != nil {
		return err
	}
	return sess.Run(os.Stdin, os.Stdout)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	seed, quantum := vmFlags(fs)
	jsonOut := fs.Bool("json", false, "emit the snapshot as JSON")
	trace := fs.Bool("trace", false, "stream phase-scope events to stderr")
	ops := fs.Bool("ops", false, "profile dispatch instead: per-opcode, opcode-pair, and superinstruction counts")
	monitor := fs.Bool("monitor", false, "attach the online analysis pipeline (adds the stream.* counters)")
	cacheDir := fs.String("cache-dir", os.Getenv("PPD_CACHE_DIR"),
		"persistent artifact cache directory (empty disables; default $PPD_CACHE_DIR)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats: need one source file")
	}
	prog, err := compileFile(fs.Arg(0), ppd.Options{CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	if *ops {
		st, err := prog.ProfileOps(ppd.Options{Seed: *seed, Quantum: *quantum})
		if err != nil {
			return err
		}
		fmt.Print(st.Text(
			func(op int) string { return bytecode.Op(op).String() },
			func(op int) string { return bytecode.SuperOp(op).String() },
		))
		fmt.Printf("fusion: %d window(s) admitted only by absint certificates\n",
			prog.CompileStats().Counters["fusion.windows.widened"])
		return nil
	}
	opts := ppd.Options{Seed: *seed, Quantum: *quantum, Monitor: *monitor}
	if *trace {
		opts.Trace = os.Stderr
	}
	exec, err := prog.RunLoggedContext(context.Background(), opts)
	if err != nil {
		return err
	}
	// Exercise the debugging phase so debug.*, sched.*, and race.* report:
	// race detection plus one flowback graph build.
	_ = exec.Races()
	_, _, _ = exec.Controller().CurrentGraph(0)
	st := exec.Stats()
	if *jsonOut {
		b, err := st.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	fmt.Print(st.Text())
	return nil
}

// runRaces is `ppd races`, writing its report to w. raced reports that
// some seed's execution has a race, which main maps to exit status 1.
func runRaces(args []string, w io.Writer) (raced bool, err error) {
	fs := flag.NewFlagSet("races", flag.ExitOnError)
	seed, quantum := vmFlags(fs)
	sweep := fs.Int("sweep", 1, "number of scheduler seeds to try")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return false, fmt.Errorf("races: need one source file")
	}
	prog, err := compileFile(fs.Arg(0), ppd.Options{})
	if err != nil {
		return false, err
	}
	for s := *seed; s < *seed+int64(*sweep); s++ {
		exec, err := prog.RunLoggedContext(context.Background(), ppd.Options{Seed: s, Quantum: *quantum})
		if err != nil {
			return raced, err
		}
		if rerr := exec.Err(); rerr != nil {
			fmt.Fprintf(w, "seed %d: execution halted: %v\n", s, rerr)
		}
		if len(exec.Races()) > 0 {
			raced = true
		}
		fmt.Fprintf(w, "seed %d: %s", s, exec.RaceReport())
	}
	return raced, nil
}

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
	"flag"
	"fmt"
	"os"

	"ppd"
	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/controller"
	"ppd/internal/debugger"
	"ppd/internal/eblock"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/source"
	"ppd/internal/vm"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "compile":
		err = cmdCompile(args)
	case "dump":
		err = cmdDump(args)
	case "run":
		err = cmdRun(args)
	case "debug":
		err = cmdDebug(args)
	case "races":
		err = cmdRaces(args)
	case "watch":
		err = cmdWatch(args)
	case "vet":
		err = cmdVet(args)
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

func loadFile(path string) (*source.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return source.NewFile(path, string(data)), nil
}

func compileFile(path string) (*compile.Artifacts, error) {
	f, err := loadFile(path)
	if err != nil {
		return nil, err
	}
	return compile.Compile(f, eblock.DefaultConfig())
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
	f, err := loadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	sink := obs.New()
	art, err := compile.CompileCached(f, eblock.DefaultConfig(), *cacheDir, *workers, sink)
	if err != nil {
		return err
	}
	// A cache hit returns a shallow artifact; the summary below needs the
	// e-block plan, so rebuild the semantic layers (codegen is skipped).
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
		snap := sink.Snapshot()
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
	art, err := compileFile(fs.Arg(0))
	if err != nil {
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

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed, quantum := vmFlags(fs)
	mode := fs.String("mode", "run", "execution mode: run, log, or trace")
	firstRace := fs.Bool("first-race", false,
		"monitor the run online and cancel it at the first race (implies -mode log; exits 1 on a race)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need one source file")
	}
	if *firstRace {
		return runFirstRace(fs.Arg(0), *seed, *quantum)
	}
	art, err := compileFile(fs.Arg(0))
	if err != nil {
		return err
	}
	var m vm.Mode
	switch *mode {
	case "run":
		m = vm.ModeRun
	case "log":
		m = vm.ModeLog
	case "trace":
		m = vm.ModeFullTrace
	default:
		return fmt.Errorf("run: unknown mode %q", *mode)
	}
	v := vm.New(art.Prog, vm.Options{Mode: m, Seed: *seed, Quantum: *quantum, Output: os.Stdout})
	rerr := v.Run()
	if m == vm.ModeLog {
		fmt.Fprintf(os.Stderr, "[log: %d process(es), %d bytes]\n",
			v.Log.NumProcs(), v.Log.SizeBytes())
	}
	if m == vm.ModeFullTrace {
		fmt.Fprintf(os.Stderr, "[trace: %d bytes]\n", v.Trace.SizeBytes())
	}
	if rerr != nil {
		return rerr
	}
	return nil
}

// runFirstRace is `ppd run -first-race`: the run carries the online
// pipeline and is cancelled the moment the frontier detector reports a
// race — a long racy execution terminates in a small fraction of its full
// runtime, with the triggering race(s) reported.
func runFirstRace(path string, seed int64, quantum int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := ppd.CompileOpts(path, string(data), eblock.DefaultConfig(), ppd.Options{})
	if err != nil {
		return err
	}
	exec, err := prog.RunLogged(ppd.Options{
		Seed: seed, Quantum: quantum, Output: os.Stdout, StopAtFirstRace: true,
	})
	if err != nil {
		return err
	}
	switch {
	case exec.StoppedAtRace():
		fmt.Fprintf(os.Stderr, "[run cancelled at first race]\n")
		fmt.Fprint(os.Stderr, exec.OnlineRaceReport())
		os.Exit(1)
	case len(exec.OnlineRaces()) > 0:
		// A short run can complete before the cancellation lands; the
		// races are still the online pipeline's.
		fmt.Fprintf(os.Stderr, "[run completed before cancellation]\n")
		fmt.Fprint(os.Stderr, exec.OnlineRaceReport())
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[run completed race-free under this schedule]\n")
	return nil
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
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := ppd.CompileOpts(fs.Arg(0), string(data), eblock.DefaultConfig(), ppd.Options{})
	if err != nil {
		return err
	}
	exec, err := prog.RunLogged(ppd.Options{
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
	art, err := compileFile(fs.Arg(0))
	if err != nil {
		return err
	}
	v := vm.New(art.Prog, vm.Options{
		Mode: vm.ModeLog, Seed: *seed, Quantum: *quantum, Output: os.Stdout,
		BreakAt: ast.StmtID(*breakAt),
	})
	if rerr := v.Run(); rerr != nil {
		fmt.Fprintf(os.Stderr, "[execution halted: %v]\n", rerr)
	}
	if v.BreakHit {
		fmt.Fprintf(os.Stderr, "[halted at breakpoint s%d]\n", *breakAt)
	}
	sess, err := debugger.New(controller.FromRun(art, v))
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
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	prog, err := ppd.CompileOpts(fs.Arg(0), string(data), eblock.DefaultConfig(),
		ppd.Options{CacheDir: *cacheDir})
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
	exec, err := prog.RunLogged(opts)
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

func cmdRaces(args []string) error {
	fs := flag.NewFlagSet("races", flag.ExitOnError)
	seed, quantum := vmFlags(fs)
	sweep := fs.Int("sweep", 1, "number of scheduler seeds to try")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("races: need one source file")
	}
	art, err := compileFile(fs.Arg(0))
	if err != nil {
		return err
	}
	names := make([]string, len(art.Prog.Globals))
	for gid, def := range art.Prog.Globals {
		names[gid] = def.Name
	}
	mask := art.Vet(nil).Conflicts.Mask()
	anyRace := false
	for s := int64(0); s < int64(*sweep); s++ {
		v := vm.New(art.Prog, vm.Options{Mode: vm.ModeLog, Seed: *seed + s, Quantum: *quantum})
		if rerr := v.Run(); rerr != nil {
			fmt.Printf("seed %d: execution halted: %v\n", *seed+s, rerr)
		}
		g := parallel.Build(v.Log, len(art.Prog.Globals))
		g.VarNames = names
		races := race.Detect(g, race.Opts{Mask: mask})
		if len(races) > 0 {
			anyRace = true
		}
		fmt.Printf("seed %d: %s", *seed+s, race.Report(races, nil))
	}
	if anyRace {
		os.Exit(1)
	}
	return nil
}

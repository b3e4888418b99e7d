// Package ppd is the public API of the Parallel Program Debugger, a
// reproduction of Miller & Choi, "A Mechanism for Efficient Debugging of
// Parallel Programs" (PLDI 1988).
//
// PPD debugs MPL programs (a small C-like parallel language with processes,
// semaphores, and message channels) in the paper's three phases:
//
//  1. Preparatory — CompileOpts produces the instrumented object code, the
//     static program dependence graph, the e-block plan, and the program
//     database.
//  2. Execution — Program.RunLoggedContext executes on the simulated
//     shared-memory multiprocessor while generating the (small)
//     incremental-tracing log: prelogs, postlogs, shared prelogs, and
//     synchronization records.
//  3. Debugging — Execution.Debugger answers flowback queries by emulating
//     individual e-block intervals on demand; Execution.Races applies the
//     happened-before race detector (Definitions 6.1–6.4).
//
// Quick start — a Session bundles all three phases behind one handle:
//
//	sess, err := ppd.OpenSession("demo.mpl", src, ppd.Options{})
//	defer sess.Close()
//	if sess.Failed() != nil {
//	    report, _ := sess.RaceReport()
//	    fmt.Print(report)
//	}
//
// The lower-level Program/Execution surface remains available for callers
// that need to separate the phases (compile once, run many seeds); the
// long-running entry points all have Context variants that honor
// cancellation. `ppd serve` (internal/server) exposes the session API as a
// multi-session HTTP/JSON daemon.
//
// The examples/ directory contains runnable walkthroughs, and cmd/ppd is a
// complete CLI over the same API.
package ppd

import (
	"context"
	"fmt"
	"io"
	"os"

	"ppd/internal/analysis"
	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/compile"
	"ppd/internal/controller"
	"ppd/internal/debugger"
	"ppd/internal/dynpdg"
	"ppd/internal/eblock"
	"ppd/internal/emulation"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/parallel"
	"ppd/internal/race"
	"ppd/internal/replay"
	"ppd/internal/source"
	"ppd/internal/stream"
	"ppd/internal/vm"
)

// Re-exported debugging-phase types. These are aliases so values returned
// by this package interoperate with the subsystem packages directly.
type (
	// Controller is the PPD Controller: the debugging-phase coordinator.
	Controller = controller.Controller
	// InteractiveSession is an interactive textual debugging session
	// (the `ppd debug` REPL). The name Session now belongs to the
	// first-class debugging-session object — see OpenSession.
	InteractiveSession = debugger.Session
	// DynamicGraph is a dynamic program dependence graph.
	DynamicGraph = dynpdg.Graph
	// ParallelGraph is the parallel dynamic graph of one execution.
	ParallelGraph = parallel.Graph
	// Race is one detected race condition.
	Race = race.Race
	// BlockConfig tunes e-block construction (§5.4).
	BlockConfig = eblock.Config
	// Log is the per-process execution log.
	Log = logging.ProgramLog
	// Emulator re-executes e-block intervals of one process.
	Emulator = emulation.Emulator
	// WhatIfResult compares an interval's original and modified replays.
	WhatIfResult = replay.WhatIfResult
	// StateSnapshot is a restored global state as of a record boundary
	// (Session.ReplayTo, §5.7 postlog accumulation).
	StateSnapshot = replay.Snapshot
	// Stats is a snapshot of PPD's observability counters and timers,
	// renderable as text (Text) or JSON (JSON). See Execution.Stats and
	// Program.CompileStats.
	Stats = obs.Snapshot
	// TimerStat is the read-out of one duration histogram inside Stats.
	TimerStat = obs.TimerStat
	// VetResult is the outcome of the static-analysis passes (`ppd vet`).
	VetResult = analysis.Result
	// Diagnostic is one static-analysis finding with its source position.
	Diagnostic = analysis.Diagnostic
	// OpStats is the dispatch histogram collected by Program.ProfileOps:
	// per-opcode and opcode-pair execution counts plus superinstruction
	// hits (`ppd stats -ops`). It feeds the profile-guided fusion table.
	OpStats = obs.OpStats
	// RaceEvent is one race as the online pipeline reports it, while the
	// program is still running (Options.OnRace).
	RaceEvent = stream.RaceEvent
	// StreamResult is the online pipeline's final output: the canonical
	// race set plus the frontier counters (Execution.OnlineResult).
	StreamResult = stream.Result
)

// Options configures an execution.
type Options struct {
	// Seed selects the scheduler interleaving; 0 is strict round-robin.
	Seed int64
	// Quantum is the maximum instructions per scheduling slice (default 40).
	Quantum int
	// MaxSteps bounds total instructions (default 200M).
	MaxSteps int64
	// Output receives the program's print output; nil discards it.
	Output io.Writer
	// BreakAt halts every process the first time the given statement (see
	// the program database / `ppd dump` for statement numbers) is about to
	// execute, leaving a debuggable stopped state.
	BreakAt int
	// Workers bounds the debugging phase's worker-pool fan-out (race
	// detection, emulator construction, prefetch). 0 uses GOMAXPROCS.
	Workers int
	// CacheBound caps the controller's interval LRU cache: 0 means the
	// default bound, < 0 removes the bound.
	CacheBound int
	// Trace, when non-nil, streams phase-scope events (the execution run,
	// debugging-phase builds and queries) as one timestamped line per
	// scope. It does not affect the collected Stats.
	Trace io.Writer
	// CacheDir enables the persistent artifact cache for CompileOpts:
	// preparatory-phase outputs are stored there keyed by a content hash of
	// the source and configuration, and a later compile of identical input
	// skips the whole pipeline. Empty falls back to the PPD_CACHE_DIR
	// environment variable; empty both ways disables caching.
	CacheDir string
	// NoFusion disables the bytecode fusion pass for CompileOpts: the
	// program runs on plain single-opcode dispatch. The observable
	// behavior — output, logs, races, vet — is identical either way; the
	// switch exists for measurement (the E18 dispatch benchmarks) and as an
	// escape hatch. Fused and unfused compiles never share a persistent
	// cache entry (the fusion fingerprint is part of the cache key).
	NoFusion bool
	// LogSink, when non-nil, streams the execution log during
	// RunLoggedContext: each record is encoded in PPD's binary format as it
	// is produced and its memory recycled, so a long run retains compact
	// encoded bytes instead of record structures. At run end the sink holds exactly the
	// bytes WriteLog would have produced. A streamed Execution keeps no
	// in-memory records — load the sink's bytes back with Program.ReadLog
	// before starting the debugging phase.
	LogSink io.Writer

	// Monitor runs the online analysis pipeline during RunLoggedContext:
	// the record stream is teed into an incremental graph builder and a
	// frontier race detector that work concurrently with the run, with
	// memory bounded by the synchronization frontier instead of the run
	// length. The final race set (Execution.OnlineResult) is
	// byte-identical to what Execution.Races computes after the fact.
	// Implied by StopAtFirstRace and by a non-nil OnRace.
	Monitor bool
	// StopAtFirstRace cancels the run the moment the online detector
	// classifies a race — monitoring a long execution costs only
	// time-to-first-race. The returned Execution is valid (its partial
	// log is well formed, exit records flushed) and reports
	// StoppedAtRace.
	StopAtFirstRace bool
	// OnRace fires once per race as it is detected, while the program is
	// still running. It runs on the pipeline goroutine; implementations
	// should return quickly.
	OnRace func(RaceEvent)
	// StreamBatch is the tee's record batch size for the pipeline
	// handoff; 0 selects the default (64), 1 minimizes time-to-first-race.
	StreamBatch int
}

// optionErr builds the one validation-error shape every branch of validate
// uses: the sentinel (so errors.Is(err, ErrInvalidOptions) holds), the
// offending field's name, its value, and the rule it broke.
func optionErr(field string, value any, rule string) error {
	return fmt.Errorf("%w: Options.%s = %v (%s)", ErrInvalidOptions, field, value, rule)
}

// validate rejects option values that would otherwise be silently coerced
// into defaults. Zero always means "use the default". Every rejection
// wraps ErrInvalidOptions and names the offending field and value.
func (o Options) validate(art *compile.Artifacts) error {
	if o.Quantum < 0 {
		return optionErr("Quantum", o.Quantum, "must be >= 0; 0 selects the default")
	}
	if o.MaxSteps < 0 {
		return optionErr("MaxSteps", o.MaxSteps, "must be >= 0; 0 selects the default")
	}
	if o.Workers < 0 {
		return optionErr("Workers", o.Workers, "must be >= 0; 0 uses GOMAXPROCS")
	}
	if o.BreakAt < 0 {
		return optionErr("BreakAt", o.BreakAt, "must be >= 0; 0 disables the breakpoint")
	}
	if o.StreamBatch < 0 {
		return optionErr("StreamBatch", o.StreamBatch, "must be >= 0; 0 selects the default")
	}
	if o.BreakAt > 0 {
		// Statement numbers live in the program database; a cache-loaded
		// artifact rebuilds it here on first need.
		if err := art.Hydrate(); err != nil {
			return err
		}
		if art.DB.Stmt(ast.StmtID(o.BreakAt)) == nil {
			return optionErr("BreakAt", o.BreakAt,
				fmt.Sprintf("no such statement s%d; see `ppd dump` for statement numbers", o.BreakAt))
		}
	}
	return nil
}

// Program is a compiled MPL program with its preparatory-phase artifacts.
type Program struct {
	art  *compile.Artifacts
	sink *obs.Sink // preparatory-phase metrics (compile.*)
}

// CompileOpts compiles with an explicit configuration and the
// preparatory-phase knobs from opts: Workers bounds the pipeline's
// per-function fan-out, and CacheDir (or the PPD_CACHE_DIR environment
// variable) enables the persistent artifact cache. A cache hit returns a
// Program whose semantic layers rebuild lazily on the first debugging-phase
// query; Run, RunLoggedContext, and Vet work immediately off the cached
// bytecode.
func CompileOpts(filename, src string, cfg BlockConfig, opts Options) (*Program, error) {
	sink := obs.New()
	art, err := compile.Compile(source.NewFile(filename, src), compile.Opts{
		Config:   cfg,
		Workers:  opts.Workers,
		Sink:     sink,
		CacheDir: cacheDir(opts),
		NoFusion: opts.NoFusion,
	})
	if err != nil {
		return nil, &compileErr{err}
	}
	return &Program{art: art, sink: sink}, nil
}

// cacheDir resolves the artifact-cache directory: the explicit option wins,
// then the PPD_CACHE_DIR environment variable, then no caching.
func cacheDir(opts Options) string {
	if opts.CacheDir != "" {
		return opts.CacheDir
	}
	return os.Getenv("PPD_CACHE_DIR")
}

// CompileStats returns the preparatory phase's metrics: per-pass timings and
// the sizes of the static artifacts (functions, instructions, e-blocks,
// PDG units and edges, shared-prelog sites).
func (p *Program) CompileStats() *Stats { return p.sink.Snapshot() }

// Artifacts exposes the preparatory-phase outputs for advanced use (static
// PDG, program database, e-block plan, bytecode).
func (p *Program) Artifacts() *compile.Artifacts { return p.art }

// Vet runs the static-analysis passes (race candidates, synchronization
// lints, uninitialized shared reads, dead stores) over the compiled
// artifacts and persists the result in the program database: repeated
// calls return the same *VetResult without re-analysis. The debugging
// phase reuses the result's conflict matrix to prune race detection.
func (p *Program) Vet() *VetResult {
	return p.art.Vet(p.sink)
}

// Run executes without instrumentation actions and returns the run error
// (nil, a runtime failure, or a deadlock). It is RunContext without
// cancellation.
func (p *Program) Run(opts Options) error {
	return p.RunContext(context.Background(), opts)
}

// RunContext is Run honoring ctx: the scheduler checks for cancellation
// once per scheduling slice, and a cancelled run returns ctx's error.
func (p *Program) RunContext(ctx context.Context, opts Options) error {
	if err := opts.validate(p.art); err != nil {
		return err
	}
	v := vm.New(p.art.Prog, vmOptions(ctx, opts, vm.ModeRun, nil))
	return v.Run()
}

// ProfileOps executes without instrumentation actions while collecting the
// dispatch histogram: how often each opcode ran, which opcode pairs were
// dynamically adjacent, and how many times each superinstruction fired.
// The profile is what the fusion table is regenerated from; `ppd stats
// -ops` renders it. Run errors are reported alongside the (still valid)
// partial profile.
func (p *Program) ProfileOps(opts Options) (*OpStats, error) {
	return p.ProfileOpsContext(context.Background(), opts)
}

// ProfileOpsContext is ProfileOps honoring ctx; a cancelled run returns
// the partial profile collected so far alongside ctx's error.
func (p *Program) ProfileOpsContext(ctx context.Context, opts Options) (*OpStats, error) {
	if err := opts.validate(p.art); err != nil {
		return nil, err
	}
	st := obs.NewOpStats(int(bytecode.NumOps), int(bytecode.NumSuperOps))
	vo := vmOptions(ctx, opts, vm.ModeRun, nil)
	vo.OpProfile = st
	v := vm.New(p.art.Prog, vo)
	return st, v.Run()
}

// RunLoggedContext executes the paper's execution phase, producing the log
// the debugging phase consumes. The returned Execution is valid even when
// the program failed or deadlocked — that is precisely when it is
// interesting. With Options.LogSink set, the log is streamed to the sink
// instead of retained; a sink write failure on a run that otherwise
// succeeded is returned as the error.
//
// The scheduler checks ctx for cancellation once per scheduling slice, and
// a cancelled run returns ctx's error (no Execution — cancellation is an
// infrastructure outcome, not a program one).
func (p *Program) RunLoggedContext(ctx context.Context, opts Options) (*Execution, error) {
	if err := opts.validate(p.art); err != nil {
		return nil, err
	}
	sink := obs.New()
	if opts.Trace != nil {
		sink.SetTrace(opts.Trace)
	}
	monitor := opts.Monitor || opts.StopAtFirstRace || opts.OnRace != nil
	runCtx := ctx
	var (
		pipe   *stream.Pipeline
		tee    *stream.Tee
		cancel context.CancelFunc // set only for the first-race self-abort
	)
	if monitor {
		// The online detector reuses the batch oracle's inputs: the static
		// conflict mask (memoized by Vet) prunes buckets before they are
		// materialized, and the variable names make the online report
		// byte-identical to the batch one.
		vet := p.Vet()
		names := make([]string, len(p.art.Prog.Globals))
		for i, g := range p.art.Prog.Globals {
			names[i] = g.Name
		}
		if opts.StopAtFirstRace {
			if runCtx == nil {
				runCtx = context.Background()
			}
			runCtx, cancel = context.WithCancel(runCtx)
			defer cancel()
		}
		userCB, selfCancel := opts.OnRace, cancel
		pipe = stream.New(stream.Config{
			NShared:  len(p.art.Prog.Globals),
			Mask:     vet.Conflicts.Mask(),
			VarNames: names,
			Sink:     sink,
			OnRace: func(ev RaceEvent) {
				if userCB != nil {
					userCB(ev)
				}
				if selfCancel != nil {
					selfCancel()
				}
			},
		})
		batch := opts.StreamBatch
		if batch == 0 && opts.StopAtFirstRace {
			// An abort is only as prompt as the tee's handoff; per-record
			// feeding minimizes the distance between a race happening and
			// the run being cancelled.
			batch = 1
		}
		tee = stream.NewTee(pipe, batch)
	}
	vo := vmOptions(runCtx, opts, vm.ModeLog, sink)
	if tee != nil {
		vo.Tap = tee.Tap
	}
	v := vm.New(p.art.Prog, vo)
	runErr := v.Run()
	var online *StreamResult
	if tee != nil {
		tee.Close() // drain the pipeline before reading its result
		online = pipe.Finish()
	}
	e := &Execution{Program: p, vm: v, opts: opts, sink: sink, online: online}
	switch {
	case v.Failure != nil || v.Deadlock:
		e.err = runErr // the program's own outcome
	case runErr != nil:
		// The first-race self-abort shows up as a cancelled run, but it is
		// a *successful* monitored outcome: the caller's own context is
		// still live and the pipeline holds the race that triggered it.
		// Even a cancelled run flushed its exit records, so the partial
		// log is well formed and the online result equals the batch
		// detector over that partial log.
		if cancel != nil && (ctx == nil || ctx.Err() == nil) && online != nil && len(online.Races) > 0 {
			e.stoppedAtRace = true
			return e, nil
		}
		return nil, runErr // infrastructure error (cancelled, budget exhausted, ...)
	}
	return e, nil
}

func vmOptions(ctx context.Context, opts Options, mode vm.Mode, sink *obs.Sink) vm.Options {
	vo := vm.Options{
		Mode:     mode,
		Seed:     opts.Seed,
		Quantum:  opts.Quantum,
		MaxSteps: opts.MaxSteps,
		Output:   opts.Output,
		BreakAt:  ast.StmtID(opts.BreakAt),
		LogSink:  opts.LogSink,
		Obs:      sink,
	}
	// Only a cancellable context buys the per-slice check; Background and
	// friends (Done() == nil) keep the scheduler loop untouched.
	if ctx != nil && ctx.Done() != nil {
		vo.Ctx = ctx
	}
	return vo
}

// Execution is one logged run of a Program.
type Execution struct {
	Program *Program
	vm      *vm.VM
	opts    Options
	sink    *obs.Sink // execution- and debugging-phase metrics

	err           error         // the runtime failure or deadlock that ended the run
	online        *StreamResult // set when the run was monitored
	stoppedAtRace bool

	ctl *controller.Controller
}

// Monitored reports whether the run carried the online analysis pipeline
// (Options.Monitor, StopAtFirstRace, or OnRace).
func (e *Execution) Monitored() bool { return e.online != nil }

// OnlineResult returns the online pipeline's final output — the canonical
// race set plus the frontier counters — or nil when the run was not
// monitored. The race set is byte-identical (race.Report) to what the
// batch detector computes over the same (possibly partial) log.
func (e *Execution) OnlineResult() *StreamResult { return e.online }

// OnlineRaces returns the online race set, or nil when not monitored.
func (e *Execution) OnlineRaces() []*Race {
	if e.online == nil {
		return nil
	}
	return e.online.Races
}

// OnlineRaceReport renders the online race set with variable names — the
// same format as RaceReport, but from the pipeline's result instead of a
// batch pass over the log (and without instantiating the debugging-phase
// controller). Empty when the run was not monitored.
func (e *Execution) OnlineRaceReport() string {
	if e.online == nil {
		return ""
	}
	globals := e.Program.art.Prog.Globals
	return race.Report(e.online.Races, func(gid int) string {
		if gid >= 0 && gid < len(globals) {
			return globals[gid].Name
		}
		return fmt.Sprintf("g%d", gid)
	})
}

// StoppedAtRace reports whether Options.StopAtFirstRace halted the run
// early: the execution is a valid partial run whose log ends at the
// abort, and OnlineRaces holds the race(s) that triggered it.
func (e *Execution) StoppedAtRace() bool { return e.stoppedAtRace }

// Failed returns the runtime failure that halted the program, or nil.
func (e *Execution) Failed() error {
	if e.vm.Failure == nil {
		return nil
	}
	return e.vm.Failure
}

// Deadlocked reports whether the execution ended with blocked processes.
func (e *Execution) Deadlocked() bool { return e.vm.Deadlock }

// Err returns what ended the run abnormally, worded as Program.Run reports
// it: the runtime failure, a deadlock naming the blocked-process count, or
// nil for a clean exit (and for an execution loaded by ReadLog).
func (e *Execution) Err() error { return e.err }

// AtBreakpoint reports whether the execution halted at Options.BreakAt.
func (e *Execution) AtBreakpoint() bool { return e.vm.BreakHit }

// Log returns the per-process execution log.
func (e *Execution) Log() *Log { return e.vm.Log }

// WriteLog persists the log in PPD's binary format (one artifact for the
// whole execution; the books inside remain per-process, §5.6). It errors on
// a streamed execution: the records already went to Options.LogSink, which
// holds these exact bytes.
func (e *Execution) WriteLog(w io.Writer) error { return e.vm.Log.Write(w) }

// ReadLog loads a log persisted by WriteLog and binds it to the program as
// a debuggable execution (failure/deadlock state is not persisted). The
// options configure the debugging phase only — execution already happened.
func (p *Program) ReadLog(r io.Reader, opts Options) (*Execution, error) {
	if err := opts.validate(p.art); err != nil {
		return nil, err
	}
	pl, err := logging.Read(r)
	if err != nil {
		return nil, err
	}
	sink := obs.New()
	if opts.Trace != nil {
		sink.SetTrace(opts.Trace)
	}
	if err := p.art.Hydrate(); err != nil {
		return nil, err
	}
	// The loaded log stands in for a run: give the placeholder VM the same
	// log so Log(), WriteLog, and Stats see the loaded records.
	v := vm.New(p.art.Prog, vm.Options{Mode: vm.ModeLog})
	v.Log = pl
	return &Execution{
		Program: p,
		vm:      v,
		opts:    opts,
		sink:    sink,
		ctl: controller.New(p.art, pl, controller.Config{
			Workers:    opts.Workers,
			CacheBound: opts.CacheBound,
			Obs:        sink,
		}),
	}, nil
}

// Controller returns the debugging-phase coordinator (cached).
func (e *Execution) Controller() *Controller {
	if e.ctl == nil {
		if err := e.Program.art.Hydrate(); err != nil {
			// A cached artifact rehydrates from the exact source that
			// compiled when the entry was stored, so this cannot fail;
			// failing loudly beats a nil-database panic downstream.
			panic(fmt.Sprintf("ppd: hydrate artifacts: %v", err))
		}
		e.ctl = controller.New(e.Program.art, e.vm.Log, controller.Config{
			Failure:    e.vm.Failure,
			Deadlock:   e.vm.Deadlock,
			Workers:    e.opts.Workers,
			CacheBound: e.opts.CacheBound,
			Obs:        e.sink,
		})
	}
	return e.ctl
}

// dropCache releases the controller's interval cache, if one was built.
func (e *Execution) dropCache() {
	if e.ctl != nil {
		e.ctl.DropCache()
	}
}

// Debugger starts an interactive flowback session over this execution.
func (e *Execution) Debugger() (*InteractiveSession, error) {
	return debugger.New(e.Controller())
}

// Races runs race detection over the execution instance. The result is
// memoized on the controller: the parallel graph is immutable post-run, so
// repeated calls perform no re-detection.
func (e *Execution) Races() []*Race { return e.Controller().Races() }

// Stats returns the execution's observability snapshot, spanning all three
// phases: compile.* (per-pass timings, static artifact sizes), exec.*
// (steps, context switches, per-kind log records and bytes), and — after
// debugging queries such as Races or Debugger — debug.*, sched.*, and
// race.* (cache hits/misses, emulation time, pool utilization, pairs
// checked). Each call takes a fresh snapshot; the log-size gauges are
// derived from the retained log, so repeated calls never double-count.
func (e *Execution) Stats() *Stats {
	snap := e.Program.sink.Snapshot()
	snap.Merge(e.sink.Snapshot())
	st := e.vm.Log.Stats()
	snap.Counters["exec.log.records"] = int64(st.TotalRecords())
	snap.Counters["exec.log.bytes"] = int64(st.TotalBytes())
	for k := 0; k < logging.NumKinds; k++ {
		if st.Records[k] == 0 {
			continue
		}
		name := logging.Kind(k).String()
		snap.Counters["exec.log.records."+name] = int64(st.Records[k])
		snap.Counters["exec.log.bytes."+name] = int64(st.Bytes[k])
	}
	return snap
}

// RaceReport renders the detected races with variable names.
func (e *Execution) RaceReport() string { return e.Controller().RaceReport() }

// WhatIf re-executes the e-block interval at record prelogIdx of process
// pid with the named global overridden, and reports what changed (§5.7).
// A replay the override keeps from ending stops at the instruction budget,
// and errors.Is(Modified.Err, ErrBudget) holds.
func (e *Execution) WhatIf(pid, prelogIdx int, global string, value int64) (*WhatIfResult, error) {
	if err := e.Program.art.Hydrate(); err != nil {
		return nil, err
	}
	sym := e.Program.art.Info.GlobalByName(global)
	if sym == nil {
		return nil, fmt.Errorf("ppd: no global %q", global)
	}
	return e.Controller().WhatIf(pid, prelogIdx,
		[]replay.Override{{Slot: -1, Global: sym.GlobalID, Value: value}})
}

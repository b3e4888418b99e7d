// Package vm executes PPD bytecode on a simulated shared-memory
// multiprocessor: multiple processes over one global address space, with
// semaphores, blocking message channels, and spawn, driven by a
// deterministic seedable preemptive scheduler.
//
// The scheduler is the reproduction's substitute for real SMMP hardware
// (see DESIGN.md): races and log contents depend on interleaving, and a
// seeded scheduler lets tests and benchmarks explore interleavings
// reproducibly — something the paper's Sequent could not do.
//
// One bytecode body serves three execution modes:
//
//	ModeRun       uninstrumented reference execution (overhead baseline)
//	ModeLog       the paper's execution phase: prelogs, postlogs, shared
//	              prelogs, and sync records are appended to per-process logs
//	ModeFullTrace the strawman the paper argues against: every read, write,
//	              predicate and call is traced during execution
//
// Emulation-mode execution (re-running a single e-block from its prelog,
// §5.1–§5.3) is layered on top by package emulation via the hooks exposed
// in exec.go.
package vm

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/bytecode"
	"ppd/internal/logging"
	"ppd/internal/obs"
	"ppd/internal/trace"
)

// Mode selects the VM's instrumentation behavior.
type Mode int

// Execution modes.
const (
	ModeRun Mode = iota
	ModeLog
	ModeFullTrace
)

func (m Mode) String() string {
	switch m {
	case ModeRun:
		return "run"
	case ModeLog:
		return "log"
	case ModeFullTrace:
		return "fulltrace"
	}
	return "?"
}

// Options configures an execution.
type Options struct {
	Mode     Mode
	Seed     int64     // scheduler seed; 0 = strict round-robin
	Quantum  int       // max instructions per scheduling slice (default 40)
	MaxSteps int64     // global instruction budget (default 200M)
	Output   io.Writer // program print output; nil discards

	// BreakAt halts the whole execution (all processes, §5.7's timely halt
	// / the authors' companion breakpoint mechanism) the first time any
	// process is about to execute the given statement. The logs flushed at
	// the halt make the stopped state debuggable like any other.
	BreakAt ast.StmtID

	// LogSink, when non-nil under ModeLog, streams the log: every record
	// is encoded through the binary codec as it is produced and recycled,
	// so a long run holds buffered encoded bytes instead of record
	// structures. The sink receives, at run end, exactly the bytes
	// ProgramLog.Write would have produced for the same records. The
	// in-memory (retained) log remains the default; a streamed run's log
	// must be re-read with logging.Read before the debugging phase can use
	// it.
	LogSink io.Writer

	// Obs receives execution-phase metrics: the "exec.run" phase scope and
	// the exec.steps / exec.ctxswitches / exec.procs counters, folded in
	// once when the run ends. nil disables observation; the interpreter's
	// instruction loop is identical either way (the VM always counts into
	// plain fields and never touches the sink per instruction).
	Obs *obs.Sink

	// OpProfile, when non-nil, collects the per-opcode / per-pair /
	// per-superinstruction dispatch histogram that feeds the profile-guided
	// fusion table (`ppd stats -ops`). Profiling runs through a separate
	// copy of the dispatch driver, so a nil OpProfile costs nothing. Only
	// the table-driven paths count (ModeRun/ModeLog without a breakpoint);
	// the profile must not be shared between concurrently running VMs.
	OpProfile *obs.OpStats

	// Ctx, when non-nil, makes the run cancellable: the scheduler checks
	// Ctx.Done() once per scheduling slice (never per instruction — the
	// dispatch hot path is unchanged) and a cancelled run stops between
	// slices, returning Ctx.Err() as an infrastructure error: no Failure
	// or Deadlock is recorded, and the log holds everything appended up
	// to the halt. Even a cancelled run flushes the halted processes' exit
	// records, so its (partial) log is well-formed for the debugging
	// phase. nil disables the check entirely.
	Ctx context.Context

	// Tap, when non-nil under ModeLog, observes every log record at append
	// time in generation order — the hook the online analysis pipeline
	// (internal/stream) tees off of. The tap runs on the VM goroutine
	// before the record is retained or recycled; it must copy what it
	// keeps (see logging.Tap) and should hand work off quickly. Composes
	// with LogSink: the tap fires first, then the record is encoded and
	// recycled.
	Tap logging.Tap

	// EmuGeneric forces ModeEmulate through the generic stepT loop instead
	// of the dispatch table — the byte-identity oracle the equivalence
	// suite (TestEmuDispatchByteIdentical, FuzzEmuEquivalence) pins the
	// fast path against. No effect in other modes.
	EmuGeneric bool
}

// Status is a process's scheduling state.
type Status int

// Process states.
const (
	StatusReady Status = iota
	StatusBlockedSem
	StatusBlockedSend
	StatusBlockedRecv
	StatusDone
	StatusFailed
)

func (s Status) String() string {
	switch s {
	case StatusReady:
		return "ready"
	case StatusBlockedSem:
		return "blocked-P"
	case StatusBlockedSend:
		return "blocked-send"
	case StatusBlockedRecv:
		return "blocked-recv"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	}
	return "?"
}

// Value is a runtime value; it shares logging's representation so snapshots
// need no conversion.
type Value = logging.Value

// RuntimeError describes a failure (the paper's externally visible symptom
// that starts a debugging session).
type RuntimeError struct {
	PID  int
	Stmt ast.StmtID
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("process %d at s%d: %s", e.PID, e.Stmt, e.Msg)
}

// Frame is one activation record.
type Frame struct {
	Fn    *bytecode.Func
	PC    int
	Slots []Value
	Stack []int64

	// arrSnap is the frame's copy-on-write snapshot cache for local
	// arrays, indexed by slot (ModeLog only, and only for functions that
	// declare arrays). A prelog/postlog reuses the cached snapshot until
	// an indexed store dirties the slot, so an unwritten array is never
	// deep-cloned twice.
	arrSnap []arrSnap
}

// arrSnap caches one array's last logged snapshot with its dirty bit.
type arrSnap struct {
	dirty bool
	arr   []int64
}

// Proc is one simulated process.
type Proc struct {
	PID    int
	Frames []*Frame
	Status Status

	// Blocking state.
	waitObj   int   // GlobalID of the sem/chan being waited on
	sendVal   int64 // value held while blocked on send
	sendGsn   uint64
	blockStmt ast.StmtID // statement of the operation that blocked

	// Logging state.
	Book *logging.Book
	Tbuf *trace.Buffer

	// Shared-variable access sets of the current internal edge (§6.3).
	reads, writes *bitset.Set

	lastStmt ast.StmtID // trace statement-boundary detection

	// spare recycles popped frames: a call pops one back instead of
	// allocating a fresh Frame + Slots + Stack (call-heavy programs spend
	// a large share of their time there).
	spare []*Frame

	Err *RuntimeError
}

// maxSpareFrames bounds the per-process frame freelist.
const maxSpareFrames = 8

func (p *Proc) top() *Frame { return p.Frames[len(p.Frames)-1] }

type semaphore struct {
	count   int64
	waiters []*Proc
	// pendingV implements §6.2.1's second pairing rule: set when a V takes
	// the count 0→1 with no waiter; consumed by the next operation on the
	// same semaphore.
	pendingVGsn uint64
	pendingVPid int
}

type bufferedMsg struct {
	val int64
	gsn uint64
}

type channel struct {
	cap     int
	buf     []bufferedMsg
	senders []*Proc // blocked senders, FIFO
	recvers []*Proc // blocked receivers, FIFO
}

// VM is one execution instance.
type VM struct {
	Prog *bytecode.Program
	Opts Options

	Globals []Value
	sems    []*semaphore
	chans   []*channel

	Procs []*Proc
	ready []*Proc // scheduling queue (round-robin rotation)

	rng   *rand.Rand
	gsn   uint64
	Steps int64

	// CtxSwitches counts scheduling decisions that moved execution to a
	// different process — one increment per slice, not per instruction.
	CtxSwitches int64
	lastSched   *Proc

	Log   *logging.ProgramLog
	Trace *trace.Program

	Failure  *RuntimeError
	Deadlock bool
	// BreakHit reports that execution halted at Options.BreakAt.
	BreakHit bool

	// SinkErr is a failure flushing Options.LogSink at run end; it is kept
	// separate from the run error so a program failure (the interesting
	// outcome) is never masked by a broken sink.
	SinkErr error

	numGlobals int

	// sliceKind is the interpreter specialization picked once at New (see
	// loops.go): the per-instruction mode/break/trace predicates are
	// decided per scheduling slice, not per step.
	sliceKind sliceKind

	// ops/sups are the mode's dispatch tables (dispatch.go), resolved once
	// at New; disp is the reusable dispatcher state (no per-slice
	// allocation); prof mirrors Opts.OpProfile for the profiled driver.
	ops  *opTable
	sups *superTable
	disp dispatch
	prof *obs.OpStats

	// shared mirrors Prog.Globals[i].Shared as a dense bool slice so the
	// ModeLog hot loop's read/write marking is one index, not a struct
	// field chase (ModeLog only).
	shared []bool

	// gSnap/gDirty implement copy-on-write global array snapshots
	// (ModeLog only): a prelog reuses gSnap[gid] until an indexed store
	// sets gDirty[gid], so unwritten arrays are never re-cloned.
	gSnap  [][]int64
	gDirty []bool

	// argScratch is the reusable call-argument buffer for modes that do
	// not retain argument slices (everything except full trace and
	// emulation, whose events/hooks may hold onto them).
	argScratch []int64

	// Emulation support (ModeEmulate).
	hooks   Hooks
	emuStop bool

	// emuCold counts ModeEmulate instructions dispatched through the
	// generic stepT oracle (dEmuCold and the EmuGeneric loop); the
	// remainder of Steps went through the emu fast tables. Feeds the
	// debug.emu.dispatch.* counters via EmuDispatchStats.
	emuCold int64

	// emuProc caches the single emulation process (and its root frame)
	// across ResetEmu cycles for the pooled replay context.
	emuProc *Proc
}

// New prepares an execution of prog.
func New(prog *bytecode.Program, opts Options) *VM {
	if opts.Quantum <= 0 {
		opts.Quantum = 40
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 200_000_000
	}
	v := &VM{
		Prog:       prog,
		Opts:       opts,
		numGlobals: len(prog.Globals),
	}
	v.Globals = make([]Value, len(prog.Globals))
	// ModeEmulate runs a single process with no scheduler and no real
	// synchronization (sync ops replay from the log before touching
	// sems/chans), so those structures are never allocated — the pooled
	// replay context depends on emulation VMs being this lean.
	emu := opts.Mode == ModeEmulate
	if !emu {
		v.rng = rand.New(rand.NewSource(opts.Seed))
		v.sems = make([]*semaphore, len(prog.Globals))
		v.chans = make([]*channel, len(prog.Globals))
	}
	for i, g := range prog.Globals {
		switch g.Kind {
		case bytecode.GlobalVar:
			if g.IsArray {
				v.Globals[i] = Value{Arr: make([]int64, g.Len)}
			} else if g.HasInit {
				v.Globals[i] = Value{Int: g.Init}
			}
		case bytecode.GlobalSem:
			if !emu {
				v.sems[i] = &semaphore{count: g.Init}
			}
		case bytecode.GlobalChan:
			if !emu {
				v.chans[i] = &channel{cap: g.Len}
			}
		}
	}
	if opts.Mode == ModeLog {
		v.Log = logging.NewProgramLog()
		if opts.LogSink != nil {
			v.Log.SetStream(opts.LogSink)
		}
		if opts.Tap != nil {
			v.Log.SetTap(opts.Tap)
		}
		v.shared = make([]bool, len(prog.Globals))
		for i, g := range prog.Globals {
			v.shared[i] = g.Shared
		}
		v.gSnap = make([][]int64, len(prog.Globals))
		v.gDirty = make([]bool, len(prog.Globals))
	}
	if opts.Mode == ModeFullTrace {
		v.Trace = &trace.Program{}
	}
	v.sliceKind = pickSliceKind(v.Opts)
	switch v.sliceKind {
	case sliceRun:
		tablesOnce.Do(buildDispatchTables)
		v.ops, v.sups = &runOps, &runSups
		v.prof = opts.OpProfile
	case sliceLog:
		tablesOnce.Do(buildDispatchTables)
		v.ops, v.sups = &logOps, &logSups
		v.prof = opts.OpProfile
	}
	return v
}

// nextGsn allocates a global sequence number for a sync event.
func (v *VM) nextGsn() uint64 {
	v.gsn++
	return v.gsn
}

// newProc creates a process running fn with the given arguments.
func (v *VM) newProc(fn *bytecode.Func, args []int64, fromGsn uint64) *Proc {
	p := &Proc{
		PID:    len(v.Procs),
		Status: StatusReady,
	}
	if v.Opts.Mode != ModeEmulate {
		// The internal-edge access sets only exist for markRead/markWrite
		// and fillEdgeSets, all ModeLog-gated.
		p.reads = bitset.New(v.numGlobals)
		p.writes = bitset.New(v.numGlobals)
	}
	p.Frames = []*Frame{v.newFrame(p, fn, args)}
	v.Procs = append(v.Procs, p)
	v.ready = append(v.ready, p)
	switch v.Opts.Mode {
	case ModeLog:
		p.Book = v.Log.BookFor(p.PID)
		rec := p.Book.NewRecord()
		rec.Kind = logging.RecStart
		rec.FromGsn = fromGsn
		p.Book.Append(rec)
	case ModeFullTrace:
		p.Tbuf = v.Trace.BufferFor(p.PID)
	}
	return p
}

func (v *VM) newFrame(p *Proc, fn *bytecode.Func, args []int64) *Frame {
	var f *Frame
	if n := len(p.spare); n > 0 && cap(p.spare[n-1].Slots) >= fn.NumSlots {
		f = p.spare[n-1]
		p.spare = p.spare[:n-1]
		f.Fn = fn
		f.PC = 0
		f.Stack = f.Stack[:0]
		f.Slots = f.Slots[:fn.NumSlots]
		clear(f.Slots)
		f.arrSnap = nil
	} else {
		f = &Frame{
			Fn:    fn,
			Slots: make([]Value, fn.NumSlots),
			Stack: make([]int64, 0, 16),
		}
	}
	for slot, length := range fn.ArraySlots {
		f.Slots[slot] = Value{Arr: make([]int64, length)}
	}
	if v.Opts.Mode == ModeLog && len(fn.ArraySlots) > 0 {
		f.arrSnap = make([]arrSnap, fn.NumSlots)
	}
	for i, a := range args {
		f.Slots[fn.ParamSlots[i]] = Value{Int: a}
	}
	return f
}

// releaseFrame recycles a popped frame onto the process's freelist.
// Traced emulation frames are excluded: hooks may retain references across
// the emulated interval. An untraced emulation (a what-if replay) recycles
// like a run, so its allocations do not grow with the calls it re-executes.
func (v *VM) releaseFrame(p *Proc, f *Frame) {
	if (v.Opts.Mode == ModeEmulate && p.Tbuf != nil) || len(p.spare) >= maxSpareFrames {
		return
	}
	f.Fn = nil
	p.spare = append(p.spare, f)
}

// Run executes the program to completion (all processes done), failure, or
// deadlock. It returns the first runtime error, if any.
func (v *VM) Run() error {
	main := v.Prog.Funcs[v.Prog.MainIdx]
	v.newProc(main, nil, 0)
	sc := v.Opts.Obs.Scope("exec.run")
	err := v.loop()
	sc.End()
	v.flushHaltedEdges()
	v.foldObs()
	return v.closeSink(err)
}

// RunFunc executes the program with fn(args) as the initial process instead
// of main — used by replay's what-if restarts (§5.7).
func (v *VM) RunFunc(fn *bytecode.Func, args []int64) error {
	v.newProc(fn, args, 0)
	sc := v.Opts.Obs.Scope("exec.run")
	err := v.loop()
	sc.End()
	v.flushHaltedEdges()
	v.foldObs()
	return v.closeSink(err)
}

// closeSink flushes the streaming sink, if any, after the final records
// (exit flushes included) are appended. A sink failure is reported through
// SinkErr and, when the run itself succeeded, as the returned error.
func (v *VM) closeSink(runErr error) error {
	if v.Log == nil || !v.Log.Streamed() {
		return runErr
	}
	if err := v.Log.CloseStream(); err != nil {
		v.SinkErr = err
		if runErr == nil {
			return err
		}
	}
	return runErr
}

// foldObs publishes the run's plain-field tallies into the sink, once.
func (v *VM) foldObs() {
	sink := v.Opts.Obs
	if sink == nil {
		return
	}
	sink.Counter("exec.steps").Add(v.Steps)
	sink.Counter("exec.ctxswitches").Add(v.CtxSwitches)
	sink.Counter("exec.procs").Add(int64(len(v.Procs)))
	sink.Counter("exec.syncs").Add(int64(v.gsn))
}

// flushHaltedEdges appends a final record for every process that did not
// exit cleanly (failure or deadlock), capturing its in-progress internal
// edge's shared read/write sets — the paper's timely halting of
// co-operating processes (§5.7) needs each process's state at the halt.
func (v *VM) flushHaltedEdges() {
	if v.Opts.Mode != ModeLog {
		return
	}
	for _, p := range v.Procs {
		if p.Status == StatusDone {
			continue
		}
		status := logging.ExitFailed
		if v.BreakHit {
			status = logging.ExitBreak
		}
		stmt := p.CurrentStmt()
		switch p.Status {
		case StatusBlockedSem:
			status = logging.ExitBlockedSem
			stmt = p.blockStmt
		case StatusBlockedSend:
			status = logging.ExitBlockedSend
			stmt = p.blockStmt
		case StatusBlockedRecv:
			status = logging.ExitBlockedRecv
			stmt = p.blockStmt
		case StatusFailed:
			if p.Err != nil {
				stmt = p.Err.Stmt
			}
		}
		rec := p.Book.NewRecord()
		rec.Kind, rec.Stmt, rec.Value, rec.Obj = logging.RecExit, stmt, status, -1
		if status >= logging.ExitBlockedSem && status <= logging.ExitBlockedRecv {
			rec.Obj = p.waitObj
		}
		p.fillEdgeSets(rec)
		p.Book.Append(rec)
	}
}

func (v *VM) loop() error {
	rr := 0
	var done <-chan struct{}
	if v.Opts.Ctx != nil {
		done = v.Opts.Ctx.Done()
	}
	for {
		if done != nil {
			select {
			case <-done:
				return v.Opts.Ctx.Err()
			default:
			}
		}
		// Drop finished/blocked processes from the ready queue lazily.
		live := v.ready[:0]
		for _, p := range v.ready {
			if p.Status == StatusReady {
				live = append(live, p)
			}
		}
		v.ready = live
		if len(v.ready) == 0 {
			if v.Failure != nil {
				return v.Failure
			}
			// All done, or deadlock?
			blocked := 0
			for _, p := range v.Procs {
				switch p.Status {
				case StatusBlockedSem, StatusBlockedSend, StatusBlockedRecv:
					blocked++
				}
			}
			if blocked > 0 {
				v.Deadlock = true
				return fmt.Errorf("deadlock: %d process(es) blocked", blocked)
			}
			return nil
		}

		var p *Proc
		if v.Opts.Seed == 0 {
			p = v.ready[rr%len(v.ready)]
			rr++
		} else {
			p = v.ready[v.rng.Intn(len(v.ready))]
		}
		if p != v.lastSched {
			if v.lastSched != nil {
				v.CtxSwitches++
			}
			v.lastSched = p
		}

		// One scheduling slice: the interpreter specialization was decided
		// at New (loops.go), so the per-instruction mode/trace/break
		// predicates are not re-evaluated inside the dispatch path.
		switch v.sliceKind {
		case sliceRun, sliceLog:
			if v.prof != nil {
				v.runSliceTabProf(p)
			} else {
				v.runSliceTab(p)
			}
		case sliceTrace:
			v.runSliceTrace(p)
		default:
			v.runSliceGeneric(p)
		}
		if v.Failure != nil {
			return v.Failure
		}
		if v.BreakHit {
			return nil
		}
	}
}

// fail records a runtime failure and halts the whole execution (the paper's
// "program halts due to an error" trigger for the debugging phase).
func (v *VM) fail(p *Proc, stmt ast.StmtID, format string, args ...any) {
	err := &RuntimeError{PID: p.PID, Stmt: stmt, Msg: fmt.Sprintf(format, args...)}
	p.Err = err
	p.Status = StatusFailed
	v.Failure = err
}

// finish marks a process done, flushing its final internal edge (§5.6).
func (v *VM) finish(p *Proc) {
	p.Status = StatusDone
	if v.Opts.Mode == ModeLog {
		rec := p.Book.NewRecord()
		rec.Kind, rec.Value = logging.RecExit, logging.ExitClean
		p.fillEdgeSets(rec)
		p.Book.Append(rec)
	}
	if v.Opts.Mode == ModeFullTrace {
		p.Tbuf.Append(trace.Event{Kind: trace.EvEnd})
	}
}

// fillEdgeSets moves the current internal edge's shared read/write sets
// into rec (reusing the record's slice capacity when it was recycled) and
// resets them.
func (p *Proc) fillEdgeSets(rec *logging.Record) {
	rec.Reads = p.reads.AppendTo(rec.Reads)
	rec.Writes = p.writes.AppendTo(rec.Writes)
	p.reads.Clear()
	p.writes.Clear()
}

// CurrentStmt reports where a process is stopped (for the debugger UI).
func (p *Proc) CurrentStmt() ast.StmtID {
	if len(p.Frames) == 0 {
		return ast.NoStmt
	}
	f := p.top()
	if f.PC < len(f.Fn.Code) {
		return f.Fn.Code[f.PC].Stmt
	}
	return ast.NoStmt
}

// Snapshot returns a copy of the global state (used by replay tests).
func (v *VM) Snapshot() []Value {
	out := make([]Value, len(v.Globals))
	for i, g := range v.Globals {
		out[i] = g.Clone()
	}
	return out
}

// SnapshotInto is Snapshot cloning into dst's backing: array values reuse
// dst's arrays when the lengths match, so a recycled result re-snapshots
// without allocating.
func (v *VM) SnapshotInto(dst []Value) []Value {
	if cap(dst) < len(v.Globals) {
		dst = make([]Value, len(v.Globals))
	}
	dst = dst[:len(v.Globals)]
	for i, g := range v.Globals {
		if g.Arr != nil {
			if d := dst[i].Arr; len(d) == len(g.Arr) {
				copy(d, g.Arr)
				dst[i] = Value{Int: g.Int, Arr: d}
				continue
			}
			dst[i] = g.Clone()
			continue
		}
		dst[i] = g
	}
	return dst
}

// ResetEmu returns a ModeEmulate VM to its freshly-constructed state so the
// pooled replay context (package emulation) can reuse it: globals back to
// their initial values (array backings reused), process table emptied, all
// run outcome fields cleared. Only valid for VMs built with ModeEmulate.
func (v *VM) ResetEmu() {
	for i, g := range v.Prog.Globals {
		if g.Kind == bytecode.GlobalVar && g.IsArray {
			if a := v.Globals[i].Arr; len(a) == g.Len {
				clear(a)
				v.Globals[i] = Value{Arr: a}
			} else {
				v.Globals[i] = Value{Arr: make([]int64, g.Len)}
			}
			continue
		}
		if g.Kind == bytecode.GlobalVar && g.HasInit {
			v.Globals[i] = Value{Int: g.Init}
			continue
		}
		v.Globals[i] = Value{}
	}
	v.Procs = v.Procs[:0]
	v.ready = v.ready[:0]
	v.gsn = 0
	v.Steps = 0
	v.emuCold = 0
	v.CtxSwitches = 0
	v.lastSched = nil
	v.Failure = nil
	v.Deadlock = false
	v.BreakHit = false
	v.emuStop = false
	v.hooks = nil
}

// EmuDispatchStats reports how a ModeEmulate run's instructions were
// dispatched: through the emu fast tables vs through the generic stepT
// oracle (hook-delegated instructions, or the whole run under EmuGeneric).
func (v *VM) EmuDispatchStats() (fast, cold int64) {
	return v.Steps - v.emuCold, v.emuCold
}

package vm

import (
	"errors"
	"fmt"

	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/eblock"
	"ppd/internal/logging"
	"ppd/internal/trace"
)

// ModeEmulate is the debugging-phase mode (§3.2.3): a single process
// re-executes one e-block from its prelog. Synchronization, nested-block,
// and shared-prelog instructions are delegated to the Hooks implementation
// (package emulation), which replays them from the log.
const ModeEmulate Mode = 99

// ErrBudget is what RunEmu returns when an emulation runs past
// Options.MaxSteps. A replay that would otherwise never stop — a what-if
// override that raises a loop bound — ends with it in bounded time.
var ErrBudget = errors.New("emulation budget exhausted")

// Hooks customizes instruction semantics under ModeEmulate.
type Hooks interface {
	// OnPrelog fires at a nested e-block's prelog (a loop block inside the
	// emulated interval). Returning true means the hook substituted the
	// block's postlog and moved the PC itself.
	OnPrelog(p *Proc, blockID int) (handled bool, err error)

	// OnPostlog fires at an e-block postlog. Returning stop=true ends the
	// emulated interval (the root block's own postlog).
	OnPostlog(p *Proc, blockID int, hasRet bool) (stop bool, err error)

	// OnSync replays a synchronization operation from the log. For OpRecv
	// it returns the received value.
	OnSync(p *Proc, op logging.SyncOp, obj int) (recvVal int64, err error)

	// OnCall decides whether a call re-executes or is substituted by the
	// callee's postlog (§5.2). When skipped, it applies the postlog's
	// global values and returns the logged return value. args is the
	// VM's scratch when p records no trace: a hook may keep it only for a
	// traced process.
	OnCall(p *Proc, callee *bytecode.Func, args []int64) (skip bool, ret int64, hasRet bool, err error)

	// OnShPrelog re-supplies shared-variable values at a sync-unit start
	// (§5.5), healing divergence caused by other processes' writes.
	OnShPrelog(p *Proc, unit bytecode.UnitLog) error
}

// SetHooks installs emulation hooks (ModeEmulate only).
func (v *VM) SetHooks(h Hooks) { v.hooks = h }

// StartEmuProc creates the single emulation process positioned inside fn at
// startPC with the given frame slots, and returns it. The caller (package
// emulation) initializes slots from the prelog.
func (v *VM) StartEmuProc(fn *bytecode.Func, slots []Value, startPC int) *Proc {
	p := v.newProc(fn, nil, 0)
	f := p.top()
	for i, s := range slots {
		if i < len(f.Slots) {
			f.Slots[i] = s.Clone()
		}
	}
	f.PC = startPC
	p.Tbuf = &trace.Buffer{PID: p.PID}
	return p
}

// StartEmuProcOwned is StartEmuProc for the pooled replay context: the
// caller owns slots (already laid out with the function's arrays — no
// clone) and supplies the trace buffer. The process and its root frame are
// cached on the VM and recycled across ResetEmu cycles, so a pooled
// emulation allocates nothing here.
func (v *VM) StartEmuProcOwned(fn *bytecode.Func, slots []Value, startPC int, tb *trace.Buffer) *Proc {
	p := v.emuProc
	if p == nil {
		p = &Proc{Frames: []*Frame{{Stack: make([]int64, 0, 16)}}}
		v.emuProc = p
	}
	p.PID = len(v.Procs)
	p.Frames = p.Frames[:1]
	f := p.Frames[0]
	f.Fn = fn
	f.PC = startPC
	f.Slots = slots
	f.Stack = f.Stack[:0]
	f.arrSnap = nil
	p.Status = StatusReady
	p.Err = nil
	p.lastStmt = ast.NoStmt
	p.Tbuf = tb
	v.Procs = append(v.Procs, p)
	v.ready = append(v.ready, p)
	return p
}

// RunEmu drives the single emulation process until the hooks stop it, it
// returns from its root frame, or it fails. It runs the execution handler
// set (emudispatch.go): a traced process (one with a trace buffer:
// StartEmuProc always attaches one, StartEmuProcOwned attaches the
// caller's) through the traced wrappers, an untraced one (what-if
// replays, which need only the outcome) through the plain handlers and the
// superinstructions. Options.EmuGeneric forces the generic loop instead,
// the byte-identity oracle of both. Running past Options.MaxSteps returns
// ErrBudget.
func (v *VM) RunEmu(p *Proc) error {
	if v.Opts.EmuGeneric {
		return v.runEmuGeneric(p)
	}
	tablesOnce.Do(buildDispatchTables)
	if p.Tbuf != nil {
		return v.runEmuTab(p, &emuTraceOps, nil)
	}
	return v.runEmuTab(p, &emuOps, &execSups)
}

// runEmuGeneric is the original stepT-driven emulation loop, kept verbatim
// as the oracle the table-driven path is pinned against. The tracing
// predicate is hoisted out of the per-instruction path: it depends only on
// the mode and the process's buffer, neither of which changes mid-run.
func (v *VM) runEmuGeneric(p *Proc) error {
	start := v.Steps
	err := v.runEmuGenericLoop(p)
	v.emuCold += v.Steps - start // every generic step is a cold dispatch
	return err
}

func (v *VM) runEmuGenericLoop(p *Proc) error {
	tracing := v.tracing(p)
	for p.Status == StatusReady {
		v.Steps++
		if v.Steps > v.Opts.MaxSteps {
			return ErrBudget
		}
		v.stepT(p, tracing)
		if v.Failure != nil {
			return v.Failure
		}
		if v.emuStop {
			return nil
		}
	}
	return nil
}

func (v *VM) tracing(p *Proc) bool {
	return (v.Opts.Mode == ModeFullTrace || v.Opts.Mode == ModeEmulate) && p.Tbuf != nil
}

// emitStmtBoundary emits EvStmt when crossing into a new statement.
func (v *VM) emitStmtBoundary(p *Proc, in *bytecode.Instr) {
	if in.Stmt != ast.NoStmt && in.Stmt != p.lastStmt {
		p.lastStmt = in.Stmt
		e := p.Tbuf.Next()
		e.Kind, e.Stmt = trace.EvStmt, in.Stmt
	}
}

// spaceIndex converts a local slot or GlobalID into the function-space
// index the trace uses (locals first, then globals).
func spaceLocal(slot int) int { return slot }

func (v *VM) spaceGlobal(fn *bytecode.Func, gid int) int { return fn.NumSlots + gid }

func (v *VM) markRead(p *Proc, gid int) {
	if v.shared[gid] {
		p.reads.Add(gid)
	}
}

func (v *VM) markWrite(p *Proc, gid int) {
	if v.shared[gid] {
		p.writes.Add(gid)
	}
}

// stepT executes one instruction of p with the tracing predicate already
// decided by the caller (the slice runners hoist it out of the dispatch
// path; the table driver bypasses stepT entirely for hot opcodes and
// falls back here for the rest).
func (v *VM) stepT(p *Proc, tracing bool) {
	f := p.top()
	if f.PC >= len(f.Fn.Code) {
		v.fail(p, ast.NoStmt, "pc out of range in %s", f.Fn.Name)
		return
	}
	in := &f.Fn.Code[f.PC]
	if v.Opts.BreakAt != ast.NoStmt && in.Stmt == v.Opts.BreakAt && v.Opts.Mode != ModeEmulate {
		// Halt the whole execution before this statement runs; the PC stays
		// on it so the debugger reports the stop site.
		v.BreakHit = true
		return
	}
	if tracing {
		switch in.Op {
		case bytecode.OpPrelog, bytecode.OpPostlog, bytecode.OpShPrelog, bytecode.OpNop:
			// markers produce no statement boundaries
		default:
			v.emitStmtBoundary(p, in)
		}
	}
	f.PC++

	push := func(x int64) { f.Stack = append(f.Stack, x) }
	pop := func() int64 {
		x := f.Stack[len(f.Stack)-1]
		f.Stack = f.Stack[:len(f.Stack)-1]
		return x
	}

	switch in.Op {
	case bytecode.OpNop:

	case bytecode.OpConst:
		push(int64(in.A))

	case bytecode.OpPop:
		pop()

	case bytecode.OpLoadLocal:
		val := f.Slots[in.A].Int
		push(val)
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: spaceLocal(in.A), Idx: -1, Value: val})
		}

	case bytecode.OpStoreLocal:
		val := pop()
		f.Slots[in.A] = Value{Int: val}
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: spaceLocal(in.A), Idx: -1, Value: val})
		}

	case bytecode.OpLoadGlobal:
		val := v.Globals[in.A].Int
		push(val)
		v.markRead(p, in.A)
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: v.spaceGlobal(f.Fn, in.A), Idx: -1, Value: val})
		}

	case bytecode.OpStoreGlobal:
		val := pop()
		v.Globals[in.A] = Value{Int: val}
		v.markWrite(p, in.A)
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: v.spaceGlobal(f.Fn, in.A), Idx: -1, Value: val})
		}

	case bytecode.OpLoadIndexedL:
		i := pop()
		arr := f.Slots[in.A].Arr
		if i < 0 || i >= int64(len(arr)) {
			v.fail(p, in.Stmt, "array index %d out of range [0,%d)", i, len(arr))
			return
		}
		push(arr[i])
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: spaceLocal(in.A), Idx: int(i), Value: arr[i]})
		}

	case bytecode.OpStoreIndexedL:
		val := pop()
		i := pop()
		arr := f.Slots[in.A].Arr
		if i < 0 || i >= int64(len(arr)) {
			v.fail(p, in.Stmt, "array index %d out of range [0,%d)", i, len(arr))
			return
		}
		arr[i] = val
		if f.arrSnap != nil {
			f.arrSnap[in.A].dirty = true
		}
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: spaceLocal(in.A), Idx: int(i), Value: val})
		}

	case bytecode.OpLoadIndexedG:
		i := pop()
		arr := v.Globals[in.A].Arr
		if i < 0 || i >= int64(len(arr)) {
			v.fail(p, in.Stmt, "array index %d out of range [0,%d)", i, len(arr))
			return
		}
		push(arr[i])
		v.markRead(p, in.A)
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: v.spaceGlobal(f.Fn, in.A), Idx: int(i), Value: arr[i]})
		}

	case bytecode.OpStoreIndexedG:
		val := pop()
		i := pop()
		arr := v.Globals[in.A].Arr
		if i < 0 || i >= int64(len(arr)) {
			v.fail(p, in.Stmt, "array index %d out of range [0,%d)", i, len(arr))
			return
		}
		arr[i] = val
		v.markWrite(p, in.A)
		v.gDirty[in.A] = true
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: v.spaceGlobal(f.Fn, in.A), Idx: int(i), Value: val})
		}

	case bytecode.OpAdd, bytecode.OpSub, bytecode.OpMul, bytecode.OpDiv, bytecode.OpMod,
		bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
		y := pop()
		x := pop()
		var r int64
		switch in.Op {
		case bytecode.OpAdd:
			r = x + y
		case bytecode.OpSub:
			r = x - y
		case bytecode.OpMul:
			r = x * y
		case bytecode.OpDiv:
			if y == 0 {
				v.fail(p, in.Stmt, "division by zero")
				return
			}
			r = x / y
		case bytecode.OpMod:
			if y == 0 {
				v.fail(p, in.Stmt, "modulo by zero")
				return
			}
			r = x % y
		case bytecode.OpEq:
			r = b2i(x == y)
		case bytecode.OpNe:
			r = b2i(x != y)
		case bytecode.OpLt:
			r = b2i(x < y)
		case bytecode.OpLe:
			r = b2i(x <= y)
		case bytecode.OpGt:
			r = b2i(x > y)
		case bytecode.OpGe:
			r = b2i(x >= y)
		}
		push(r)

	case bytecode.OpNeg:
		push(-pop())
	case bytecode.OpNot:
		push(b2i(pop() == 0))

	case bytecode.OpJmp:
		f.PC = in.A

	case bytecode.OpJmpFalse:
		c := pop()
		if tracing && in.B == 1 {
			p.Tbuf.Append(trace.Event{Kind: trace.EvPred, Stmt: in.Stmt, Value: c})
		}
		if c == 0 {
			f.PC = in.A
		}

	case bytecode.OpJmpTrue:
		if pop() != 0 {
			f.PC = in.A
		}

	case bytecode.OpCall:
		callee := v.Prog.Funcs[in.A]
		args := v.popArgs(f, in.B, tracing)
		if v.Opts.Mode == ModeEmulate {
			// The hook appends EvCallSkipped and the substituted postlog's
			// EvWrite events itself when it skips.
			skip, ret, hasRet, err := v.hooks.OnCall(p, callee, args)
			if err != nil {
				v.fail(p, in.Stmt, "emulation: %v", err)
				return
			}
			if skip {
				if hasRet {
					push(ret)
				}
				p.lastStmt = ast.NoStmt
				return
			}
		}
		if len(p.Frames) > 4096 {
			v.fail(p, in.Stmt, "call stack overflow")
			return
		}
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvCallBegin, Stmt: in.Stmt,
				FuncIdx: callee.Idx, Args: args})
			p.lastStmt = ast.NoStmt
		}
		p.Frames = append(p.Frames, v.newFrame(p, callee, args))

	case bytecode.OpRet, bytecode.OpRetValue:
		var ret int64
		hasRet := in.Op == bytecode.OpRetValue
		if hasRet {
			ret = pop()
		}
		if len(p.Frames) == 1 {
			v.finish(p)
			return
		}
		p.Frames = p.Frames[:len(p.Frames)-1]
		caller := p.top()
		if hasRet {
			caller.Stack = append(caller.Stack, ret)
		}
		if tracing {
			p.Tbuf.Append(trace.Event{Kind: trace.EvCallEnd,
				Stmt: caller.Fn.Code[caller.PC-1].Stmt, Value: ret, HasValue: hasRet})
			p.lastStmt = ast.NoStmt
		}
		v.releaseFrame(p, f)

	case bytecode.OpSpawn:
		// Spawn arguments are copied into the child's slots immediately, so
		// the scratch buffer is safe in every mode (no event retains them).
		args := v.popArgs(f, in.B, false)
		if v.Opts.Mode == ModeEmulate {
			if _, err := v.hooks.OnSync(p, logging.OpSpawn, -1); err != nil {
				v.fail(p, in.Stmt, "emulation: %v", err)
				return
			}
			if tracing {
				p.Tbuf.Append(trace.Event{Kind: trace.EvSync, Stmt: in.Stmt, Op: logging.OpSpawn, Obj: in.A})
			}
			return
		}
		gsn := v.nextGsn()
		child := v.newProc(v.Prog.Funcs[in.A], args, gsn)
		v.logSyncEvent(p, logging.OpSpawn, child.PID, in.Stmt, gsn, 0, int64(in.A))
		if v.Opts.Mode == ModeFullTrace {
			p.Tbuf.Append(trace.Event{Kind: trace.EvSync, Stmt: in.Stmt, Op: logging.OpSpawn, Obj: child.PID})
		}

	case bytecode.OpSemP:
		v.execSemP(p, in)
	case bytecode.OpSemV:
		v.execSemV(p, in)
	case bytecode.OpSend:
		v.execSend(p, in, pop())
	case bytecode.OpRecv:
		v.execRecv(p, in)

	case bytecode.OpPrintStr:
		if v.Opts.Output != nil && v.Opts.Mode != ModeEmulate {
			fmt.Fprint(v.Opts.Output, v.Prog.Strings[in.A])
		}
	case bytecode.OpPrintVal:
		val := pop()
		if v.Opts.Output != nil && v.Opts.Mode != ModeEmulate {
			fmt.Fprint(v.Opts.Output, val)
		}
	case bytecode.OpPrintNl:
		if v.Opts.Output != nil && v.Opts.Mode != ModeEmulate {
			fmt.Fprintln(v.Opts.Output)
		}

	case bytecode.OpPrelog:
		switch v.Opts.Mode {
		case ModeLog:
			v.emitPrelog(p, in.A, in.Stmt)
		case ModeEmulate:
			handled, err := v.hooks.OnPrelog(p, in.A)
			if err != nil {
				v.fail(p, in.Stmt, "emulation: %v", err)
			}
			_ = handled
		}

	case bytecode.OpPostlog:
		switch v.Opts.Mode {
		case ModeLog:
			v.emitPostlog(p, in.A, in.B == 1, in.Stmt)
		case ModeEmulate:
			stop, err := v.hooks.OnPostlog(p, in.A, in.B == 1)
			if err != nil {
				v.fail(p, in.Stmt, "emulation: %v", err)
				return
			}
			if stop {
				if p.Tbuf != nil {
					p.Tbuf.Append(trace.Event{Kind: trace.EvEnd, Stmt: in.Stmt})
				}
				v.emuStop = true
			}
		}

	case bytecode.OpShPrelog:
		switch v.Opts.Mode {
		case ModeLog:
			v.emitShPrelog(p, f.Fn, in.A)
		case ModeEmulate:
			if err := v.hooks.OnShPrelog(p, f.Fn.Units[in.A]); err != nil {
				v.fail(p, in.Stmt, "emulation: %v", err)
			}
		}

	default:
		v.fail(p, in.Stmt, "illegal opcode %v", in.Op)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// popArgs pops n call arguments off f's stack (leftmost deepest). Unless
// retain is set — full-trace events and emulation hooks keep the slice — the
// VM-wide scratch buffer is reused: every callee copies its arguments into
// frame slots before the next call can overwrite the scratch.
func (v *VM) popArgs(f *Frame, n int, retain bool) []int64 {
	var args []int64
	if retain {
		args = make([]int64, n)
	} else {
		if cap(v.argScratch) < n {
			v.argScratch = make([]int64, n)
		}
		args = v.argScratch[:n]
	}
	base := len(f.Stack) - n
	copy(args, f.Stack[base:])
	f.Stack = f.Stack[:base]
	return args
}

// logSyncEvent appends a sync record for p carrying the just-terminated
// internal edge's read/write sets (§6.3). The record is built only under
// ModeLog — uninstrumented runs pay nothing per sync event — and comes from
// the book's arena, not the heap. p need not be the process currently
// executing (unblock records are written for the woken process).
func (v *VM) logSyncEvent(p *Proc, op logging.SyncOp, obj int, stmt ast.StmtID, gsn, from uint64, val int64) {
	if v.Opts.Mode != ModeLog {
		return
	}
	rec := p.Book.NewRecord()
	rec.Kind, rec.Op, rec.Obj = logging.RecSync, op, obj
	rec.Stmt, rec.Gsn, rec.FromGsn, rec.Value = stmt, gsn, from, val
	p.fillEdgeSets(rec)
	p.Book.Append(rec)
}

// ------------------------------------------------------------ logging
//
// The emit helpers draw records and pair slices from the book's arena and
// snapshot arrays copy-on-write: an array value is deep-copied only when it
// was written since its last snapshot (the dirty bits set by the indexed
// stores). Snapshot slices are shared between the live cache and the log —
// safe because log values are immutable by contract (every downstream
// consumer Clones before mutating).

// snapGlobal returns global gid's value for logging, reusing the cached
// array snapshot when the array is clean.
func (v *VM) snapGlobal(gid int) Value {
	g := v.Globals[gid]
	if g.Arr == nil {
		return g
	}
	if v.gDirty[gid] || v.gSnap[gid] == nil {
		s := make([]int64, len(g.Arr))
		copy(s, g.Arr)
		v.gSnap[gid] = s
		v.gDirty[gid] = false
	}
	return Value{Arr: v.gSnap[gid]}
}

// snapLocal is snapGlobal's per-frame counterpart for local slots.
func (f *Frame) snapLocal(slot int) Value {
	val := f.Slots[slot]
	if val.Arr == nil {
		return val
	}
	if f.arrSnap == nil {
		return val.Clone()
	}
	s := &f.arrSnap[slot]
	if s.dirty || s.arr == nil {
		a := make([]int64, len(val.Arr))
		copy(a, val.Arr)
		s.arr = a
		s.dirty = false
	}
	return Value{Arr: s.arr}
}

func (v *VM) emitPrelog(p *Proc, blockID int, stmt ast.StmtID) {
	meta := v.Prog.Blocks[blockID]
	f := p.top()
	rec := p.Book.NewRecord()
	rec.Kind, rec.Block, rec.Stmt = logging.RecPrelog, eblock.ID(blockID), stmt
	if n := len(meta.UsedLocals); n > 0 {
		rec.Locals = p.Book.TakePairs(rec.Locals, n)
		for _, slot := range meta.UsedLocals {
			rec.Locals = append(rec.Locals, logging.VarVal{Idx: slot, Val: f.snapLocal(slot)})
		}
	}
	if n := len(meta.UsedGlobals); n > 0 {
		rec.Globals = p.Book.TakePairs(rec.Globals, n)
		for _, gid := range meta.UsedGlobals {
			rec.Globals = append(rec.Globals, logging.VarVal{Idx: gid, Val: v.snapGlobal(gid)})
		}
	}
	p.Book.Append(rec)
}

func (v *VM) emitPostlog(p *Proc, blockID int, retOnStack bool, stmt ast.StmtID) {
	meta := v.Prog.Blocks[blockID]
	f := p.top()
	rec := p.Book.NewRecord()
	rec.Kind, rec.Block, rec.Stmt = logging.RecPostlog, eblock.ID(blockID), stmt
	if n := len(meta.DefinedLocals); n > 0 {
		rec.Locals = p.Book.TakePairs(rec.Locals, n)
		for _, slot := range meta.DefinedLocals {
			rec.Locals = append(rec.Locals, logging.VarVal{Idx: slot, Val: f.snapLocal(slot)})
		}
	}
	if n := len(meta.DefinedGlobals); n > 0 {
		rec.Globals = p.Book.TakePairs(rec.Globals, n)
		for _, gid := range meta.DefinedGlobals {
			rec.Globals = append(rec.Globals, logging.VarVal{Idx: gid, Val: v.snapGlobal(gid)})
		}
	}
	if retOnStack {
		rec.SetRet(Value{Int: f.Stack[len(f.Stack)-1]})
	}
	p.Book.Append(rec)
}

func (v *VM) emitShPrelog(p *Proc, fn *bytecode.Func, unitIdx int) {
	u := fn.Units[unitIdx]
	rec := p.Book.NewRecord()
	rec.Kind, rec.Stmt = logging.RecShPrelog, u.Stmt
	rec.Globals = p.Book.TakePairs(rec.Globals, len(u.Globals))
	for _, gid := range u.Globals {
		rec.Globals = append(rec.Globals, logging.VarVal{Idx: gid, Val: v.snapGlobal(gid)})
	}
	p.Book.Append(rec)
}

package vm

import (
	"sync"

	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/logging"
)

// Table-driven dispatch — Go's closest analogue to direct threading.
//
// ModeRun and ModeLog slices execute through one per-opcode func-value
// table built once (per process lifetime, under a sync.Once) instead of a
// switch: the dispatcher fetches the opcode and calls straight through a
// function pointer, and at every pc it first consults the function's
// superinstruction side table (bytecode.FuseCert) to execute a whole fused
// sequence in one call. The generic stepT remains the cold-path oracle for
// calls, returns, spawns, blocking synchronization, and printing.
//
// Both modes share every handler, so a logged and an unlogged run of the
// same instrumented code differ only in the logging work itself. ModeRun
// pays for that with a guard, never with a record: its shared-variable
// bits are all false, so the access-marking branches are never taken, and
// the e-block marker handlers return at once when the VM is not logging.
// ModeEmulate runs the same handlers too (emudispatch.go): execSups as
// they are for untraced replays, and emuOps/emuTraceOps derived from
// execOps.
//
// The contract is pinned by the golden matrix (TestLogGoldenByteIdentical,
// TestLogGoldenFusedVsUnfused): same step counts, same failure sites,
// byte-identical ModeLog output as the generic loop. Two rules keep fused
// execution inside that contract:
//
//   - a superinstruction of width W executes only when the current slice
//     has ≥ W quantum left AND the instruction budget admits W more steps;
//     otherwise the same instructions run through single-op dispatch, so
//     slice boundaries and budget-exhaustion points land on exactly the
//     same instruction as with fusion off;
//   - only infallible or certificate-proven sequences are fused
//     (bytecode.FuseCert), so every failure site still reports its
//     single-op PC.
//
// Handlers communicate non-linear control flow through dispatch.sig:
// sigReload after a cold op that may have changed the top frame, sigExit on
// failure/block/finish (the handler has already written back PC/stack).

type opFn func(d *dispatch, in *bytecode.Instr)

type superFn func(d *dispatch, s *bytecode.SuperInstr)

// opTable is indexed by the full uint8 opcode space: a corrupt cache entry
// can carry any byte, and every unspecialized opcode routes to dCold whose
// stepT oracle reports "illegal opcode" exactly like the old switch.
type opTable [256]opFn

type superTable [bytecode.NumSuperOps]superFn

// dispatch carries the interpreter's cached hot state across handler
// calls. One instance lives in the VM (no per-slice allocation).
type dispatch struct {
	v     *VM
	p     *Proc
	f     *Frame
	code  []bytecode.Instr
	super []bytecode.SuperInstr
	slots []Value
	stack []int64
	pc    int
	sig   uint8
	prev  int // previous opcode, for the Options.OpProfile pair counts
}

const (
	sigNone   uint8 = iota
	sigReload       // cold op ran through stepT: re-cache the top frame
	sigExit         // failure/block/finish: PC and stack already written back
)

var (
	tablesOnce sync.Once
	execOps    opTable    // ModeRun and ModeLog; emuOps/emuTraceOps derive from it
	execSups   superTable // ModeRun, ModeLog and untraced ModeEmulate
	profOps    opTable    // execOps counting into Options.OpProfile
	profSups   superTable // execSups counting into Options.OpProfile
)

// reload re-caches the (possibly new) top frame after a cold op.
func (d *dispatch) reload() {
	f := d.p.top()
	d.f = f
	d.code = f.Fn.Code
	d.super = f.Fn.Super
	d.slots = f.Slots
	d.stack = f.Stack
	d.pc = f.PC
}

// runSliceTab is the table-driven slice driver for ModeRun and ModeLog.
func (v *VM) runSliceTab(p *Proc) {
	d := &v.disp
	d.v, d.p, d.sig, d.prev = v, p, sigNone, -1
	d.reload()
	ops, sups := v.ops, v.sups
	quantum, maxSteps := v.Opts.Quantum, v.Opts.MaxSteps

	for q := 0; q < quantum; {
		if d.super != nil && d.pc < len(d.super) {
			if s := &d.super[d.pc]; s.Op != bytecode.SuperNone {
				if w := int(s.W); q+w <= quantum && v.Steps+int64(w) <= maxSteps {
					v.Steps += int64(w)
					q += w
					d.pc += w
					sups[s.Op](d, s)
					if d.sig == sigExit {
						// A certificate-gated shape hit its (provably
						// impossible) failure path and already wrote back
						// the single-op machine state.
						return
					}
					continue
				}
			}
		}
		v.Steps++
		q++
		if v.Steps > maxSteps {
			d.f.PC, d.f.Stack = d.pc, d.stack
			v.fail(p, ast.NoStmt, "instruction budget exhausted")
			return
		}
		if d.pc >= len(d.code) {
			d.f.PC, d.f.Stack = d.pc, d.stack
			v.fail(p, ast.NoStmt, "pc out of range in %s", d.f.Fn.Name)
			return
		}
		in := &d.code[d.pc]
		d.pc++
		ops[in.Op](d, in)
		if d.sig != sigNone {
			if d.sig == sigExit {
				return
			}
			d.sig = sigNone
			d.reload()
		}
	}
	d.f.PC, d.f.Stack = d.pc, d.stack
}

// buildDispatchTables fills the execution-phase op and superinstruction
// tables, the emulation tables derived from them, and the profiling
// wrappers.
func buildDispatchTables() {
	execOps[bytecode.OpNop] = dNop
	execOps[bytecode.OpConst] = dConst
	execOps[bytecode.OpPop] = dPop
	execOps[bytecode.OpLoadLocal] = dLoadLocal
	execOps[bytecode.OpStoreLocal] = dStoreLocal
	execOps[bytecode.OpLoadGlobal] = dLoadGlobal
	execOps[bytecode.OpStoreGlobal] = dStoreGlobal
	execOps[bytecode.OpLoadIndexedL] = dLoadIndexedL
	execOps[bytecode.OpStoreIndexedL] = dStoreIndexedL
	execOps[bytecode.OpLoadIndexedG] = dLoadIndexedG
	execOps[bytecode.OpStoreIndexedG] = dStoreIndexedG
	execOps[bytecode.OpAdd] = dAdd
	execOps[bytecode.OpSub] = dSub
	execOps[bytecode.OpMul] = dMul
	execOps[bytecode.OpDiv] = dDiv
	execOps[bytecode.OpMod] = dMod
	execOps[bytecode.OpEq] = dEq
	execOps[bytecode.OpNe] = dNe
	execOps[bytecode.OpLt] = dLt
	execOps[bytecode.OpLe] = dLe
	execOps[bytecode.OpGt] = dGt
	execOps[bytecode.OpGe] = dGe
	execOps[bytecode.OpNeg] = dNeg
	execOps[bytecode.OpNot] = dNot
	execOps[bytecode.OpJmp] = dJmp
	execOps[bytecode.OpJmpFalse] = dJmpFalse
	execOps[bytecode.OpJmpTrue] = dJmpTrue
	execOps[bytecode.OpSemP] = dSemP
	execOps[bytecode.OpSemV] = dSemV
	execOps[bytecode.OpPrelog] = dPrelog
	execOps[bytecode.OpPostlog] = dPostlog
	execOps[bytecode.OpShPrelog] = dShPrelog

	execSups[bytecode.SuperNone] = sNone
	execSups[bytecode.SuperLLBinS] = sLLBinS
	execSups[bytecode.SuperLCBinS] = sLCBinS
	execSups[bytecode.SuperLLCmpJf] = sLLCmpJf
	execSups[bytecode.SuperLCCmpJf] = sLCCmpJf
	execSups[bytecode.SuperLGCmpJf] = sLGCmpJf
	execSups[bytecode.SuperLLBin] = sLLBin
	execSups[bytecode.SuperLCBin] = sLCBin
	execSups[bytecode.SuperLGBin] = sLGBin
	execSups[bytecode.SuperLBin] = sLBin
	execSups[bytecode.SuperCBin] = sCBin
	execSups[bytecode.SuperConstStoreL] = sConstStoreL
	execSups[bytecode.SuperCmpJf] = sCmpJf
	execSups[bytecode.SuperLLDivS] = sLLDivS
	execSups[bytecode.SuperLLDiv] = sLLDiv
	execSups[bytecode.SuperLGDiv] = sLGDiv
	execSups[bytecode.SuperLDiv] = sLDiv
	execSups[bytecode.SuperIdxLoadL] = sIdxLoadL
	execSups[bytecode.SuperIdxLoadG] = sIdxLoadG
	execSups[bytecode.SuperIdxStoreL] = sIdxStoreL
	execSups[bytecode.SuperIdxStoreG] = sIdxStoreG

	// The emulation tables are derived while the unspecialized opcodes are
	// still nil; then each of them routes to the generic step.
	buildEmuDispatchTables()
	for i, h := range execOps {
		if h == nil {
			execOps[i] = dCold
		}
	}

	// The profiling wrappers count before the real handler runs. A fused
	// dispatch counts its constituent opcodes and pairs (the driver has
	// already advanced the pc past them), so the histogram does not depend
	// on the fusion configuration.
	for i, h := range execOps {
		profOps[i] = func(d *dispatch, in *bytecode.Instr) {
			d.v.prof.Count(d.prev, int(in.Op))
			d.prev = int(in.Op)
			h(d, in)
		}
	}
	for i, h := range execSups {
		profSups[i] = func(d *dispatch, s *bytecode.SuperInstr) {
			prof := d.v.prof
			for pc := d.pc - int(s.W); pc < d.pc; pc++ {
				op := int(d.code[pc].Op)
				prof.Count(d.prev, op)
				d.prev = op
			}
			prof.CountSuper(int(s.Op))
			h(d, s)
		}
	}
}

// dCold hands the instruction to the generic step — the same fallback the
// switch loops used for calls, returns, spawns, sync, printing, and
// unknown opcodes.
func dCold(d *dispatch, _ *bytecode.Instr) {
	d.pc--
	d.f.PC, d.f.Stack = d.pc, d.stack
	v := d.v
	v.stepT(d.p, false)
	if v.Failure != nil || d.p.Status != StatusReady {
		d.sig = sigExit
		return
	}
	d.sig = sigReload
}

func dNop(_ *dispatch, _ *bytecode.Instr) {}

func dConst(d *dispatch, in *bytecode.Instr) {
	d.stack = append(d.stack, int64(in.A))
}

func dPop(d *dispatch, _ *bytecode.Instr) {
	d.stack = d.stack[:len(d.stack)-1]
}

func dLoadLocal(d *dispatch, in *bytecode.Instr) {
	d.stack = append(d.stack, d.slots[in.A].Int)
}

func dStoreLocal(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack) - 1
	d.slots[in.A] = Value{Int: d.stack[n]}
	d.stack = d.stack[:n]
}

func dLoadGlobal(d *dispatch, in *bytecode.Instr) {
	d.stack = append(d.stack, d.v.Globals[in.A].Int)
	if d.v.shared[in.A] {
		d.p.reads.Add(in.A)
	}
}

func dStoreGlobal(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack) - 1
	d.v.Globals[in.A] = Value{Int: d.stack[n]}
	d.stack = d.stack[:n]
	if d.v.shared[in.A] {
		d.p.writes.Add(in.A)
	}
}

// indexFail writes back the interpreter state and reports an out-of-range
// index (operands already popped, matching the switch loops' fail sites).
func (d *dispatch) indexFail(in *bytecode.Instr, i int64, n int) {
	d.f.PC, d.f.Stack = d.pc, d.stack
	d.v.fail(d.p, in.Stmt, "array index %d out of range [0,%d)", i, n)
	d.sig = sigExit
}

func dLoadIndexedL(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack) - 1
	i := d.stack[n]
	d.stack = d.stack[:n]
	arr := d.slots[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	d.stack = append(d.stack, arr[i])
}

func dStoreIndexedL(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack)
	val, i := d.stack[n-1], d.stack[n-2]
	d.stack = d.stack[:n-2]
	arr := d.slots[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	arr[i] = val
	if d.f.arrSnap != nil {
		d.f.arrSnap[in.A].dirty = true
	}
}

func dLoadIndexedG(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack) - 1
	i := d.stack[n]
	d.stack = d.stack[:n]
	arr := d.v.Globals[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	d.stack = append(d.stack, arr[i])
	if d.v.shared[in.A] {
		d.p.reads.Add(in.A)
	}
}

func dStoreIndexedG(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack)
	val, i := d.stack[n-1], d.stack[n-2]
	d.stack = d.stack[:n-2]
	arr := d.v.Globals[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	arr[i] = val
	if d.v.shared[in.A] {
		d.p.writes.Add(in.A)
	}
	d.v.gDirty[in.A] = true
}

func dAdd(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] += d.stack[n-1]
	d.stack = d.stack[:n-1]
}

func dSub(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] -= d.stack[n-1]
	d.stack = d.stack[:n-1]
}

func dMul(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] *= d.stack[n-1]
	d.stack = d.stack[:n-1]
}

func dDiv(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack)
	if d.stack[n-1] == 0 {
		d.stack = d.stack[:n-2]
		d.f.PC, d.f.Stack = d.pc, d.stack
		d.v.fail(d.p, in.Stmt, "division by zero")
		d.sig = sigExit
		return
	}
	d.stack[n-2] /= d.stack[n-1]
	d.stack = d.stack[:n-1]
}

func dMod(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack)
	if d.stack[n-1] == 0 {
		d.stack = d.stack[:n-2]
		d.f.PC, d.f.Stack = d.pc, d.stack
		d.v.fail(d.p, in.Stmt, "modulo by zero")
		d.sig = sigExit
		return
	}
	d.stack[n-2] %= d.stack[n-1]
	d.stack = d.stack[:n-1]
}

func dEq(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] = b2i(d.stack[n-2] == d.stack[n-1])
	d.stack = d.stack[:n-1]
}

func dNe(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] = b2i(d.stack[n-2] != d.stack[n-1])
	d.stack = d.stack[:n-1]
}

func dLt(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] = b2i(d.stack[n-2] < d.stack[n-1])
	d.stack = d.stack[:n-1]
}

func dLe(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] = b2i(d.stack[n-2] <= d.stack[n-1])
	d.stack = d.stack[:n-1]
}

func dGt(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] = b2i(d.stack[n-2] > d.stack[n-1])
	d.stack = d.stack[:n-1]
}

func dGe(d *dispatch, _ *bytecode.Instr) {
	n := len(d.stack)
	d.stack[n-2] = b2i(d.stack[n-2] >= d.stack[n-1])
	d.stack = d.stack[:n-1]
}

func dNeg(d *dispatch, _ *bytecode.Instr) {
	d.stack[len(d.stack)-1] = -d.stack[len(d.stack)-1]
}

func dNot(d *dispatch, _ *bytecode.Instr) {
	d.stack[len(d.stack)-1] = b2i(d.stack[len(d.stack)-1] == 0)
}

func dJmp(d *dispatch, in *bytecode.Instr) {
	d.pc = in.A
}

func dJmpFalse(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack) - 1
	c := d.stack[n]
	d.stack = d.stack[:n]
	if c == 0 {
		d.pc = in.A
	}
}

func dJmpTrue(d *dispatch, in *bytecode.Instr) {
	n := len(d.stack) - 1
	c := d.stack[n]
	d.stack = d.stack[:n]
	if c != 0 {
		d.pc = in.A
	}
}

// The e-block markers are inert unless the VM is logging (ModeRun runs
// the same instrumented code with no log): one check per marker, never
// per instruction.

func dPrelog(d *dispatch, in *bytecode.Instr) {
	if d.v.Log == nil {
		return
	}
	d.v.emitPrelog(d.p, in.A, in.Stmt)
}

func dPostlog(d *dispatch, in *bytecode.Instr) {
	if d.v.Log == nil {
		return
	}
	// the emitter reads the return value off the operand stack
	d.f.Stack = d.stack
	d.v.emitPostlog(d.p, in.A, in.B == 1, in.Stmt)
}

func dShPrelog(d *dispatch, in *bytecode.Instr) {
	if d.v.Log == nil {
		return
	}
	d.v.emitShPrelog(d.p, d.f.Fn, in.A)
}

// dSemP is the non-blocking P fast path: when the semaphore's count is
// positive, the operation completes inline — same gsn allocation, same
// §6.2.1 pendingV pairing, and (under ModeLog) the same sync record as
// execSemP's fast case. A zero count or a bad object falls back to the
// oracle, which blocks or fails identically to before.
func dSemP(d *dispatch, in *bytecode.Instr) {
	v := d.v
	s := v.sems[in.A]
	if s == nil || s.count <= 0 {
		dCold(d, in)
		return
	}
	s.count--
	gsn := v.nextGsn()
	var from uint64
	if s.pendingVGsn != 0 && s.pendingVPid != d.p.PID {
		from = s.pendingVGsn
	}
	s.pendingVGsn, s.pendingVPid = 0, -1
	v.logSyncEvent(d.p, logging.OpP, in.A, in.Stmt, gsn, from, s.count)
}

// dSemV is the no-waiter V fast path; a V with waiters (direct handoff to
// a blocked P, which mutates the ready queue) takes the cold path.
func dSemV(d *dispatch, in *bytecode.Instr) {
	v := d.v
	s := v.sems[in.A]
	if s == nil || len(s.waiters) > 0 {
		dCold(d, in)
		return
	}
	gsn := v.nextGsn()
	v.logSyncEvent(d.p, logging.OpV, in.A, in.Stmt, gsn, 0, s.count)
	s.count++
	if s.count == 1 {
		s.pendingVGsn, s.pendingVPid = gsn, d.p.PID
	} else {
		s.pendingVGsn, s.pendingVPid = 0, -1
	}
}

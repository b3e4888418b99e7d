package vm

import (
	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/trace"
)

// Table-driven dispatch for ModeEmulate — the debugging phase's hot path.
//
// Emulation cannot share the execution-phase tables (dispatch.go): its
// handlers must interleave trace events (EvStmt boundaries, per-access
// EvRead/EvWrite, EvPred) with execution. emuOps mirrors stepT's
// ModeEmulate semantics exactly — boundary before the op, events in
// single-op order, identical failure sites and messages — and emuSups
// executes the infallible fused windows under emulation by emitting each
// constituent's boundary and events in the order single-op dispatch would
// have.
//
// The contract is the execution tables' cold-path-oracle pattern, pinned by
// TestEmuDispatchByteIdentical and FuzzEmuEquivalence (internal/emulation):
// for every interval, the fast path's trace bytes, final globals, failure,
// and records consumed equal the generic loop's (Options.EmuGeneric).
//
//   - Hook-delegated instructions (calls, returns, spawn, sync, prelog /
//     postlog / shared-prelog markers) and printing go through dEmuCold →
//     stepT, the unchanged oracle.
//   - Fused windows execute only for shapes whose trace-event order is
//     provably identical to single-op execution: the twelve infallible
//     shapes. Certificate-gated shapes (div/mod with variable divisors,
//     indexed windows) carry failure paths whose single-op state is
//     entangled with the trace; they fall back to single-op dispatch,
//     where the emu handlers reproduce the exact failure anyway.
//   - Emulation has no scheduling quantum (one process runs to its
//     postlog), so a window is gated only on the instruction budget:
//     budget-exhaustion points land on the same instruction either way.

var (
	emuOps  opTable
	emuSups superTable
)

// buildEmuDispatchTables fills the ModeEmulate tables; called from
// buildDispatchTables under the same sync.Once.
func buildEmuDispatchTables() {
	for i := range emuOps {
		emuOps[i] = dEmuCold
	}
	emuOps[bytecode.OpNop] = dNop // marker: no boundary, no effect
	emuOps[bytecode.OpConst] = eConst
	emuOps[bytecode.OpPop] = ePop
	emuOps[bytecode.OpLoadLocal] = eLoadLocal
	emuOps[bytecode.OpStoreLocal] = eStoreLocal
	emuOps[bytecode.OpLoadGlobal] = eLoadGlobal
	emuOps[bytecode.OpStoreGlobal] = eStoreGlobal
	emuOps[bytecode.OpLoadIndexedL] = eLoadIndexedL
	emuOps[bytecode.OpStoreIndexedL] = eStoreIndexedL
	emuOps[bytecode.OpLoadIndexedG] = eLoadIndexedG
	emuOps[bytecode.OpStoreIndexedG] = eStoreIndexedG
	emuOps[bytecode.OpAdd] = eAdd
	emuOps[bytecode.OpSub] = eSub
	emuOps[bytecode.OpMul] = eMul
	emuOps[bytecode.OpDiv] = eDiv
	emuOps[bytecode.OpMod] = eMod
	emuOps[bytecode.OpEq] = eEq
	emuOps[bytecode.OpNe] = eNe
	emuOps[bytecode.OpLt] = eLt
	emuOps[bytecode.OpLe] = eLe
	emuOps[bytecode.OpGt] = eGt
	emuOps[bytecode.OpGe] = eGe
	emuOps[bytecode.OpNeg] = eNeg
	emuOps[bytecode.OpNot] = eNot
	emuOps[bytecode.OpJmp] = eJmp
	emuOps[bytecode.OpJmpFalse] = eJmpFalse
	emuOps[bytecode.OpJmpTrue] = eJmpTrue
	emuOps[bytecode.OpPrintStr] = ePrintStr
	emuOps[bytecode.OpPrintVal] = ePrintVal
	emuOps[bytecode.OpPrintNl] = ePrintNl

	// Fused windows with provably identical trace-event order. The
	// certificate-gated shapes (SuperLLDivS…SuperIdxStoreG) stay nil: the
	// driver falls back to single-op emu dispatch for them.
	emuSups[bytecode.SuperLLBinS] = esLLBinS
	emuSups[bytecode.SuperLCBinS] = esLCBinS
	emuSups[bytecode.SuperLLCmpJf] = esLLCmpJf
	emuSups[bytecode.SuperLCCmpJf] = esLCCmpJf
	emuSups[bytecode.SuperLGCmpJf] = esLGCmpJf
	emuSups[bytecode.SuperLLBin] = esLLBin
	emuSups[bytecode.SuperLCBin] = esLCBin
	emuSups[bytecode.SuperLGBin] = esLGBin
	emuSups[bytecode.SuperLBin] = esLBin
	emuSups[bytecode.SuperCBin] = esCBin
	emuSups[bytecode.SuperConstStoreL] = esConstStoreL
	emuSups[bytecode.SuperCmpJf] = esCmpJf
}

// runEmuTab is the table-driven counterpart of runEmuGeneric (the oracle
// kept in exec.go). Same step accounting, same budget-exhaustion and
// pc-range failure points, byte-identical trace output. The caller
// guarantees tracing (p.Tbuf != nil).
func (v *VM) runEmuTab(p *Proc) error {
	tablesOnce.Do(buildDispatchTables)
	d := &v.disp
	d.v, d.p, d.sig = v, p, sigNone
	d.reload()
	maxSteps := v.Opts.MaxSteps

	for {
		if d.super != nil && d.pc < len(d.super) {
			if s := &d.super[d.pc]; s.Op != bytecode.SuperNone {
				if h := emuSups[s.Op]; h != nil && v.Steps+int64(s.W) <= maxSteps {
					v.Steps += int64(s.W)
					d.pc += int(s.W)
					h(d, s)
					if d.sig == sigExit {
						break
					}
					continue
				}
			}
		}
		v.Steps++
		if v.Steps > maxSteps {
			d.f.PC, d.f.Stack = d.pc, d.stack
			return ErrBudget
		}
		if d.pc >= len(d.code) {
			d.f.PC, d.f.Stack = d.pc, d.stack
			v.fail(p, ast.NoStmt, "pc out of range in %s", d.f.Fn.Name)
			return v.Failure
		}
		in := &d.code[d.pc]
		d.pc++
		emuOps[in.Op](d, in)
		if d.sig != sigNone {
			if d.sig == sigExit {
				break
			}
			d.sig = sigNone
			d.reload()
		}
	}
	if v.Failure != nil {
		return v.Failure
	}
	return nil
}

// dEmuCold hands the instruction to stepT (tracing on): calls, returns,
// spawn, sync, printing markers, prelog/postlog/shared-prelog, illegal
// opcodes. It also exits on emuStop (the root postlog) — the condition the
// generic loop checks after every step but that only cold ops can set.
func dEmuCold(d *dispatch, _ *bytecode.Instr) {
	d.pc--
	d.f.PC, d.f.Stack = d.pc, d.stack
	v := d.v
	v.emuCold++
	v.stepT(d.p, true)
	if v.Failure != nil || v.emuStop || d.p.Status != StatusReady {
		d.sig = sigExit
		return
	}
	d.sig = sigReload
}

// emuBoundary emits EvStmt when crossing into a new statement — the same
// predicate stepT applies before every non-marker instruction.
func (d *dispatch) emuBoundary(in *bytecode.Instr) {
	if in.Stmt != ast.NoStmt && in.Stmt != d.p.lastStmt {
		d.p.lastStmt = in.Stmt
		d.p.Tbuf.Append(trace.Event{Kind: trace.EvStmt, Stmt: in.Stmt})
	}
}

// emuBoundaryAt emits the boundary for the constituent instruction at pc
// inside a fused window and returns it (for its Stmt tag).
func (d *dispatch) emuBoundaryAt(pc int) *bytecode.Instr {
	in := &d.code[pc]
	d.emuBoundary(in)
	return in
}

// ---- single-op handlers ----

func eConst(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	d.stack = append(d.stack, int64(in.A))
}

func ePop(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	d.stack = d.stack[:len(d.stack)-1]
}

func eLoadLocal(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	val := d.slots[in.A].Int
	d.stack = append(d.stack, val)
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: in.A, Idx: -1, Value: val})
}

func eStoreLocal(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack) - 1
	val := d.stack[n]
	d.stack = d.stack[:n]
	d.slots[in.A] = Value{Int: val}
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: in.A, Idx: -1, Value: val})
}

func eLoadGlobal(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	val := d.v.Globals[in.A].Int
	d.stack = append(d.stack, val)
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: d.f.Fn.NumSlots + in.A, Idx: -1, Value: val})
}

func eStoreGlobal(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack) - 1
	val := d.stack[n]
	d.stack = d.stack[:n]
	d.v.Globals[in.A] = Value{Int: val}
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: d.f.Fn.NumSlots + in.A, Idx: -1, Value: val})
}

func eLoadIndexedL(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack) - 1
	i := d.stack[n]
	d.stack = d.stack[:n]
	arr := d.slots[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	d.stack = append(d.stack, arr[i])
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: in.A, Idx: int(i), Value: arr[i]})
}

func eStoreIndexedL(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack)
	val, i := d.stack[n-1], d.stack[n-2]
	d.stack = d.stack[:n-2]
	arr := d.slots[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	arr[i] = val
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: in.A, Idx: int(i), Value: val})
}

func eLoadIndexedG(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack) - 1
	i := d.stack[n]
	d.stack = d.stack[:n]
	arr := d.v.Globals[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	d.stack = append(d.stack, arr[i])
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: d.f.Fn.NumSlots + in.A, Idx: int(i), Value: arr[i]})
}

func eStoreIndexedG(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack)
	val, i := d.stack[n-1], d.stack[n-2]
	d.stack = d.stack[:n-2]
	arr := d.v.Globals[in.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.indexFail(in, i, len(arr))
		return
	}
	arr[i] = val
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: d.f.Fn.NumSlots + in.A, Idx: int(i), Value: val})
}

func eAdd(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in); dAdd(d, in) }
func eSub(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in); dSub(d, in) }
func eMul(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in); dMul(d, in) }
func eDiv(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in); dDiv(d, in) }
func eMod(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in); dMod(d, in) }
func eEq(d *dispatch, in *bytecode.Instr)  { d.emuBoundary(in); dEq(d, in) }
func eNe(d *dispatch, in *bytecode.Instr)  { d.emuBoundary(in); dNe(d, in) }
func eLt(d *dispatch, in *bytecode.Instr)  { d.emuBoundary(in); dLt(d, in) }
func eLe(d *dispatch, in *bytecode.Instr)  { d.emuBoundary(in); dLe(d, in) }
func eGt(d *dispatch, in *bytecode.Instr)  { d.emuBoundary(in); dGt(d, in) }
func eGe(d *dispatch, in *bytecode.Instr)  { d.emuBoundary(in); dGe(d, in) }
func eNeg(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in); dNeg(d, in) }
func eNot(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in); dNot(d, in) }

func eJmp(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	d.pc = in.A
}

func eJmpFalse(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack) - 1
	c := d.stack[n]
	d.stack = d.stack[:n]
	if in.B == 1 {
		d.p.Tbuf.Append(trace.Event{Kind: trace.EvPred, Stmt: in.Stmt, Value: c})
	}
	if c == 0 {
		d.pc = in.A
	}
}

func eJmpTrue(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	n := len(d.stack) - 1
	c := d.stack[n]
	d.stack = d.stack[:n]
	if c != 0 {
		d.pc = in.A
	}
}

// Print output is suppressed under emulation; only the statement boundary
// (and PrintVal's pop) remains.
func ePrintStr(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in) }

func ePrintVal(d *dispatch, in *bytecode.Instr) {
	d.emuBoundary(in)
	d.stack = d.stack[:len(d.stack)-1]
}

func ePrintNl(d *dispatch, in *bytecode.Instr) { d.emuBoundary(in) }

// ---- fused-window handlers ----
//
// Each handler replays its constituents' boundaries and trace events in
// exact single-op order. The driver has already advanced d.pc past the
// window, so pc0 = d.pc - W indexes the first constituent (for …CmpJf
// shapes a taken branch then rewrites d.pc).

func esLLBinS(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	tb := d.p.Tbuf
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	y := d.slots[s.B].Int
	in = d.emuBoundaryAt(pc0 + 1)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.B, Idx: -1, Value: y})
	d.emuBoundaryAt(pc0 + 2)
	r := superApply(s.Bin, x, y)
	in = d.emuBoundaryAt(pc0 + 3)
	tb.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: s.C, Idx: -1, Value: r})
	d.slots[s.C] = Value{Int: r}
}

func esLCBinS(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	tb := d.p.Tbuf
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	d.emuBoundaryAt(pc0 + 1)
	d.emuBoundaryAt(pc0 + 2)
	r := superApply(s.Bin, x, s.K)
	in = d.emuBoundaryAt(pc0 + 3)
	tb.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: s.C, Idx: -1, Value: r})
	d.slots[s.C] = Value{Int: r}
}

func esLLCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	tb := d.p.Tbuf
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	y := d.slots[s.B].Int
	in = d.emuBoundaryAt(pc0 + 1)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.B, Idx: -1, Value: y})
	d.emuBoundaryAt(pc0 + 2)
	d.emuCmpJf(s, pc0+3, x, y)
}

func esLCCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	d.emuBoundaryAt(pc0 + 1)
	d.emuBoundaryAt(pc0 + 2)
	d.emuCmpJf(s, pc0+3, x, s.K)
}

func esLGCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	tb := d.p.Tbuf
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	y := d.v.Globals[s.B].Int
	in = d.emuBoundaryAt(pc0 + 1)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: d.f.Fn.NumSlots + s.B, Idx: -1, Value: y})
	d.emuBoundaryAt(pc0 + 2)
	d.emuCmpJf(s, pc0+3, x, y)
}

// emuCmpJf finishes a …CmpJf window: the JmpFalse constituent's boundary,
// its EvPred when it is the statement's main predicate, and the branch.
func (d *dispatch) emuCmpJf(s *bytecode.SuperInstr, jmpPC int, x, y int64) {
	in := d.emuBoundaryAt(jmpPC)
	c := b2i(superCmp(s.Bin, x, y))
	if in.B == 1 {
		d.p.Tbuf.Append(trace.Event{Kind: trace.EvPred, Stmt: in.Stmt, Value: c})
	}
	if c == 0 {
		d.pc = s.T
	}
}

func esLLBin(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	tb := d.p.Tbuf
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	y := d.slots[s.B].Int
	in = d.emuBoundaryAt(pc0 + 1)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.B, Idx: -1, Value: y})
	d.emuBoundaryAt(pc0 + 2)
	d.stack = append(d.stack, superApply(s.Bin, x, y))
}

func esLCBin(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	d.emuBoundaryAt(pc0 + 1)
	d.emuBoundaryAt(pc0 + 2)
	d.stack = append(d.stack, superApply(s.Bin, x, s.K))
}

func esLGBin(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	tb := d.p.Tbuf
	x := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: x})
	y := d.v.Globals[s.B].Int
	in = d.emuBoundaryAt(pc0 + 1)
	tb.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: d.f.Fn.NumSlots + s.B, Idx: -1, Value: y})
	d.emuBoundaryAt(pc0 + 2)
	d.stack = append(d.stack, superApply(s.Bin, x, y))
}

func esLBin(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	y := d.slots[s.A].Int
	in := d.emuBoundaryAt(pc0)
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvRead, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: y})
	d.emuBoundaryAt(pc0 + 1)
	n := len(d.stack) - 1
	d.stack[n] = superApply(s.Bin, d.stack[n], y)
}

func esCBin(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	d.emuBoundaryAt(pc0)
	d.emuBoundaryAt(pc0 + 1)
	n := len(d.stack) - 1
	d.stack[n] = superApply(s.Bin, d.stack[n], s.K)
}

func esConstStoreL(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	d.emuBoundaryAt(pc0)
	in := d.emuBoundaryAt(pc0 + 1)
	d.p.Tbuf.Append(trace.Event{Kind: trace.EvWrite, Stmt: in.Stmt, Var: s.A, Idx: -1, Value: s.K})
	d.slots[s.A] = Value{Int: s.K}
}

func esCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	pc0 := d.pc - int(s.W)
	n := len(d.stack)
	x, y := d.stack[n-2], d.stack[n-1]
	d.stack = d.stack[:n-2]
	d.emuBoundaryAt(pc0)
	d.emuCmpJf(s, pc0+1, x, y)
}

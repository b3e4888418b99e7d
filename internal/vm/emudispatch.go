package vm

import (
	"ppd/internal/ast"
	"ppd/internal/bytecode"
	"ppd/internal/trace"
)

// Table-driven dispatch for ModeEmulate — the debugging phase's hot path.
//
// Emulation is execution from a prelog (§5.1–§5.3), so it runs the
// execution handler set (dispatch.go, super.go). This file adds only what
// emulation itself needs:
//
//   - Hook-delegated instructions (calls, returns, spawn, sync, the
//     prelog/postlog/shared-prelog markers) and illegal opcodes go through
//     dEmuCold → stepT, which replays them through the Hooks. The print
//     ops do nothing: emulation prints nothing.
//   - An untraced run (what-if replays) uses emuOps with execSups, the
//     certificate-gated shapes included: their failure sites match
//     single-op execution. v.shared is all false, so nothing is marked.
//   - A traced run uses emuTraceOps: each handler wrapped to emit the
//     statement boundary before it and the one event its opcode's shape
//     needs after it. It fuses nothing: trace appends dominate that path.
//
// With no scheduling quantum, a fused window is gated only on the
// instruction budget, so budget cuts land on the same instruction either
// way. TestEmuDispatchByteIdentical and FuzzEmuEquivalence
// (internal/emulation) pin the contract: every interval's trace, globals,
// failure, steps and records consumed, traced and untraced, equal the
// generic loop's (Options.EmuGeneric).

var (
	emuOps      opTable // untraced: execOps with hook-delegated ops cold
	emuTraceOps opTable // traced: emuOps wrapped with boundaries and events
)

// buildEmuDispatchTables derives the ModeEmulate tables from execOps, under
// buildDispatchTables' sync.Once while the ops it leaves to stepT are nil.
func buildEmuDispatchTables() {
	for i, h := range execOps {
		op := bytecode.Op(i)
		switch op {
		case bytecode.OpPrintStr, bytecode.OpPrintNl:
			h = dNop
		case bytecode.OpPrintVal:
			h = dPop
		case bytecode.OpSemP, bytecode.OpSemV, bytecode.OpPrelog, bytecode.OpPostlog, bytecode.OpShPrelog:
			h = nil // replayed through the hooks
		}
		switch {
		case h == nil:
			emuOps[i], emuTraceOps[i] = dEmuCold, dEmuCold
		case op == bytecode.OpNop: // a marker: no statement boundary
			emuOps[i], emuTraceOps[i] = dNop, dNop
		default:
			emuOps[i], emuTraceOps[i] = h, emuTraced(op, h)
		}
	}
}

// emuTraced wraps execution handler h for traced emulation: the statement
// boundary, h, then (unless h failed) the event op's shape needs, in
// stepT's order. Operands h pops are read before it runs.
func emuTraced(op bytecode.Op, h opFn) opFn {
	global := op == bytecode.OpLoadGlobal || op == bytecode.OpStoreGlobal ||
		op == bytecode.OpLoadIndexedG || op == bytecode.OpStoreIndexedG
	indexed := op == bytecode.OpLoadIndexedL || op == bytecode.OpStoreIndexedL ||
		op == bytecode.OpLoadIndexedG || op == bytecode.OpStoreIndexedG
	switch op {
	case bytecode.OpLoadLocal, bytecode.OpLoadGlobal, bytecode.OpLoadIndexedL, bytecode.OpLoadIndexedG:
		return func(d *dispatch, in *bytecode.Instr) {
			d.v.emitStmtBoundary(d.p, in)
			idx := -1
			if indexed {
				idx = int(d.stack[len(d.stack)-1])
			}
			h(d, in)
			if d.sig != sigExit {
				d.emuAccess(trace.EvRead, in, global, idx, d.stack[len(d.stack)-1])
			}
		}
	case bytecode.OpStoreLocal, bytecode.OpStoreGlobal, bytecode.OpStoreIndexedL, bytecode.OpStoreIndexedG:
		return func(d *dispatch, in *bytecode.Instr) {
			d.v.emitStmtBoundary(d.p, in)
			n := len(d.stack)
			val, idx := d.stack[n-1], -1
			if indexed {
				idx = int(d.stack[n-2])
			}
			h(d, in)
			if d.sig != sigExit {
				d.emuAccess(trace.EvWrite, in, global, idx, val)
			}
		}
	case bytecode.OpJmpFalse:
		return func(d *dispatch, in *bytecode.Instr) {
			d.v.emitStmtBoundary(d.p, in)
			c := d.stack[len(d.stack)-1]
			h(d, in)
			if d.sig != sigExit && in.B == 1 {
				e := d.p.Tbuf.Next()
				e.Kind, e.Stmt, e.Value = trace.EvPred, in.Stmt, c
			}
		}
	}
	return func(d *dispatch, in *bytecode.Instr) {
		d.v.emitStmtBoundary(d.p, in)
		h(d, in)
	}
}

// emuAccess appends a read or write event on a slot of the trace's function
// space (locals, then globals); idx is -1 for a scalar access.
func (d *dispatch) emuAccess(kind trace.EventKind, in *bytecode.Instr, global bool, idx int, val int64) {
	v := in.A
	if global {
		v += d.f.Fn.NumSlots
	}
	e := d.p.Tbuf.Next()
	e.Kind, e.Stmt, e.Var, e.Idx, e.Value = kind, in.Stmt, v, idx, val
}

// runEmuTab is the table-driven counterpart of runEmuGeneric (the oracle
// kept in exec.go): same step accounting, same budget-exhaustion and
// pc-range failure points, byte-identical trace output. sups is nil when
// the run dispatches no superinstructions.
func (v *VM) runEmuTab(p *Proc, ops *opTable, sups *superTable) error {
	d := &v.disp
	d.v, d.p, d.sig = v, p, sigNone
	d.reload()
	maxSteps := v.Opts.MaxSteps

	for {
		if sups != nil && d.pc < len(d.super) {
			if s := &d.super[d.pc]; s.Op != bytecode.SuperNone && v.Steps+int64(s.W) <= maxSteps {
				v.Steps += int64(s.W)
				d.pc += int(s.W)
				sups[s.Op](d, s)
				if d.sig == sigExit {
					break
				}
				continue
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
		ops[in.Op](d, in)
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

// dEmuCold hands the instruction to stepT: calls, returns, spawn, sync,
// prelog/postlog/shared-prelog, illegal opcodes. It also exits on emuStop
// (the root postlog) — the condition the generic loop checks after every
// step but that only cold ops can set.
func dEmuCold(d *dispatch, _ *bytecode.Instr) {
	d.pc--
	d.f.PC, d.f.Stack = d.pc, d.stack
	v := d.v
	v.emuCold++
	v.stepT(d.p, d.p.Tbuf != nil)
	if v.Failure != nil || v.emuStop || d.p.Status != StatusReady {
		d.sig = sigExit
		return
	}
	d.sig = sigReload
}

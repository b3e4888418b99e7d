package vm

import (
	"ppd/internal/ast"
)

// Slice drivers.
//
// The generic stepT checks its predicates on every instruction: which mode
// is running, whether a breakpoint is armed, and whether the process is
// traced. None of them can change mid-execution, so New decides a sliceKind
// once and loop() dispatches each scheduling slice straight into one of two
// drivers. ModeRun and ModeLog without a breakpoint run through the
// table-driven dispatcher (dispatch.go): per-opcode func-value tables plus
// the superinstruction side table, with the generic stepT as the cold-path
// oracle for calls, returns, spawns, blocking synchronization, and printing.
// Everything else — a breakpoint, or full tracing, where every opcode emits
// events — runs the generic loop.
//
// The table driver must be behaviorally identical to runSliceGeneric:
// same step counts, same failure sites, and byte-identical ModeLog output
// (pinned by TestLogGoldenByteIdentical and the fused-vs-unfused matrix).

// sliceKind selects the per-slice interpreter loop.
type sliceKind int

const (
	sliceGeneric sliceKind = iota // breakpoints, full trace: one stepT per instruction
	sliceTable                    // ModeRun/ModeLog, no breakpoint: dispatch tables
)

// pickSliceKind decides the specialization once per execution. A breakpoint
// forces the generic loop: only stepT checks BreakAt.
func pickSliceKind(opts Options) sliceKind {
	if opts.BreakAt == ast.NoStmt && (opts.Mode == ModeRun || opts.Mode == ModeLog) {
		return sliceTable
	}
	return sliceGeneric
}

// runSliceGeneric is the reference slice: one generic step per instruction,
// with the tracing predicate hoisted out of the loop (it depends only on
// the mode and the process's trace buffer, neither of which changes within
// a slice).
func (v *VM) runSliceGeneric(p *Proc) {
	tracing := v.tracing(p)
	for q := 0; q < v.Opts.Quantum && p.Status == StatusReady; q++ {
		v.Steps++
		if v.Steps > v.Opts.MaxSteps {
			v.fail(p, ast.NoStmt, "instruction budget exhausted")
			return
		}
		v.stepT(p, tracing)
		if v.Failure != nil || v.BreakHit {
			return
		}
	}
}

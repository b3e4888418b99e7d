package vm

import "ppd/internal/bytecode"

// Superinstruction handlers. Each executes a whole fused sequence
// (bytecode.FuseCert) in one dispatch; the driver has already charged the
// sequence's width against the step counter and the quantum and advanced
// the pc past it, so a handler only touches data (and, for the
// compare-and-branch shapes, rewrites the pc on a taken branch). The
// original shapes are infallible by construction — Div/Mod appear only
// with a non-zero constant operand — so their handlers never write back
// state or set dispatch.sig.
//
// The certificate-gated shapes (bytecode.FuseCert) carry trapping
// constituents that the abstract interpreter proved safe. Their handlers
// keep the runtime check as defense in depth: on the provably-impossible
// failure they reconstruct the exact single-op machine state — the pc
// after the failing instruction, the step count as of that instruction,
// the operand stack with the constituents' pushes/pops replayed — and
// fail through the same v.fail path, so even a wrong certificate (say, a
// corrupt cache entry) reports byte-identically to unfused execution.

// superApply evaluates x ∘ y for the fused binop/compare set.
func superApply(op bytecode.Op, x, y int64) int64 {
	switch op {
	case bytecode.OpAdd:
		return x + y
	case bytecode.OpSub:
		return x - y
	case bytecode.OpMul:
		return x * y
	case bytecode.OpDiv:
		return x / y
	case bytecode.OpMod:
		return x % y
	case bytecode.OpEq:
		return b2i(x == y)
	case bytecode.OpNe:
		return b2i(x != y)
	case bytecode.OpLt:
		return b2i(x < y)
	case bytecode.OpLe:
		return b2i(x <= y)
	case bytecode.OpGt:
		return b2i(x > y)
	case bytecode.OpGe:
		return b2i(x >= y)
	}
	return 0
}

// superCmp evaluates the compare shapes' predicate directly as a bool.
func superCmp(op bytecode.Op, x, y int64) bool {
	switch op {
	case bytecode.OpEq:
		return x == y
	case bytecode.OpNe:
		return x != y
	case bytecode.OpLt:
		return x < y
	case bytecode.OpLe:
		return x <= y
	case bytecode.OpGt:
		return x > y
	case bytecode.OpGe:
		return x >= y
	}
	return false
}

// sNone is never dispatched (the driver skips SuperNone entries); it fills
// table slot 0.
func sNone(_ *dispatch, _ *bytecode.SuperInstr) {}

func sLLBinS(d *dispatch, s *bytecode.SuperInstr) {
	d.slots[s.C] = Value{Int: superApply(s.Bin, d.slots[s.A].Int, d.slots[s.B].Int)}
}

func sLCBinS(d *dispatch, s *bytecode.SuperInstr) {
	d.slots[s.C] = Value{Int: superApply(s.Bin, d.slots[s.A].Int, s.K)}
}

func sLLBin(d *dispatch, s *bytecode.SuperInstr) {
	d.stack = append(d.stack, superApply(s.Bin, d.slots[s.A].Int, d.slots[s.B].Int))
}

func sLCBin(d *dispatch, s *bytecode.SuperInstr) {
	d.stack = append(d.stack, superApply(s.Bin, d.slots[s.A].Int, s.K))
}

func sLGBin(d *dispatch, s *bytecode.SuperInstr) {
	d.stack = append(d.stack, superApply(s.Bin, d.slots[s.A].Int, d.v.Globals[s.B].Int))
	if d.v.shared[s.B] {
		d.p.reads.Add(s.B)
	}
}

func sLBin(d *dispatch, s *bytecode.SuperInstr) {
	n := len(d.stack) - 1
	d.stack[n] = superApply(s.Bin, d.stack[n], d.slots[s.A].Int)
}

func sCBin(d *dispatch, s *bytecode.SuperInstr) {
	n := len(d.stack) - 1
	d.stack[n] = superApply(s.Bin, d.stack[n], s.K)
}

func sConstStoreL(d *dispatch, s *bytecode.SuperInstr) {
	d.slots[s.A] = Value{Int: s.K}
}

func sLLCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	if !superCmp(s.Bin, d.slots[s.A].Int, d.slots[s.B].Int) {
		d.pc = s.T
	}
}

func sLCCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	if !superCmp(s.Bin, d.slots[s.A].Int, s.K) {
		d.pc = s.T
	}
}

func sLGCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	if !superCmp(s.Bin, d.slots[s.A].Int, d.v.Globals[s.B].Int) {
		d.pc = s.T
	}
	if d.v.shared[s.B] {
		d.p.reads.Add(s.B)
	}
}

func sCmpJf(d *dispatch, s *bytecode.SuperInstr) {
	n := len(d.stack)
	x, y := d.stack[n-2], d.stack[n-1]
	d.stack = d.stack[:n-2]
	if !superCmp(s.Bin, x, y) {
		d.pc = s.T
	}
}

// ---- certificate-gated shapes ----

func divZeroMsg(op bytecode.Op) string {
	if op == bytecode.OpMod {
		return "modulo by zero"
	}
	return "division by zero"
}

// superDivFail reports a zero divisor from a fused window whose div/mod
// is the instruction at divPC: the single-op path would have failed with
// the pc advanced past it and only the steps up to it charged.
func (d *dispatch) superDivFail(bin bytecode.Op, divPC int) {
	d.v.Steps -= int64(d.pc - divPC - 1) // un-charge the instrs after the div
	d.pc = divPC + 1
	d.f.PC, d.f.Stack = d.pc, d.stack
	d.v.fail(d.p, d.code[divPC].Stmt, "%s", divZeroMsg(bin))
	d.sig = sigExit
}

// superIndexFail mirrors dispatch.indexFail for a fused window whose
// indexed op is the window's last instruction (all indexed shapes).
func (d *dispatch) superIndexFail(i int64, n int) {
	d.f.PC, d.f.Stack = d.pc, d.stack
	d.v.fail(d.p, d.code[d.pc-1].Stmt, "array index %d out of range [0,%d)", i, n)
	d.sig = sigExit
}

func sLLDivS(d *dispatch, s *bytecode.SuperInstr) {
	y := d.slots[s.B].Int
	if y == 0 {
		d.superDivFail(s.Bin, d.pc-2) // div is the 3rd of 4 instructions
		return
	}
	d.slots[s.C] = Value{Int: superApply(s.Bin, d.slots[s.A].Int, y)}
}

func sLLDiv(d *dispatch, s *bytecode.SuperInstr) {
	y := d.slots[s.B].Int
	if y == 0 {
		d.superDivFail(s.Bin, d.pc-1)
		return
	}
	d.stack = append(d.stack, superApply(s.Bin, d.slots[s.A].Int, y))
}

func sLGDiv(d *dispatch, s *bytecode.SuperInstr) {
	// The global load completes before the div can fail: mark it first.
	if d.v.shared[s.B] {
		d.p.reads.Add(s.B)
	}
	y := d.v.Globals[s.B].Int
	if y == 0 {
		d.superDivFail(s.Bin, d.pc-1)
		return
	}
	d.stack = append(d.stack, superApply(s.Bin, d.slots[s.A].Int, y))
}

func sLDiv(d *dispatch, s *bytecode.SuperInstr) {
	n := len(d.stack) - 1
	y := d.slots[s.A].Int
	if y == 0 {
		d.stack = d.stack[:n] // single-op div pops both operands
		d.superDivFail(s.Bin, d.pc-1)
		return
	}
	d.stack[n] = superApply(s.Bin, d.stack[n], y)
}

func sIdxLoadL(d *dispatch, s *bytecode.SuperInstr) {
	i := d.slots[s.B].Int
	arr := d.slots[s.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.superIndexFail(i, len(arr))
		return
	}
	d.stack = append(d.stack, arr[i])
}

func sIdxLoadG(d *dispatch, s *bytecode.SuperInstr) {
	i := d.slots[s.B].Int
	arr := d.v.Globals[s.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.superIndexFail(i, len(arr))
		return
	}
	d.stack = append(d.stack, arr[i])
	if d.v.shared[s.A] {
		d.p.reads.Add(s.A)
	}
}

func sIdxStoreL(d *dispatch, s *bytecode.SuperInstr) {
	i := d.slots[s.B].Int
	arr := d.slots[s.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.superIndexFail(i, len(arr))
		return
	}
	arr[i] = d.slots[s.C].Int
	if d.f.arrSnap != nil {
		d.f.arrSnap[s.A].dirty = true
	}
}

func sIdxStoreG(d *dispatch, s *bytecode.SuperInstr) {
	i := d.slots[s.B].Int
	arr := d.v.Globals[s.A].Arr
	if i < 0 || i >= int64(len(arr)) {
		d.superIndexFail(i, len(arr))
		return
	}
	arr[i] = d.slots[s.C].Int
	if d.v.shared[s.A] {
		d.p.writes.Add(s.A)
	}
	d.v.gDirty[s.A] = true
}

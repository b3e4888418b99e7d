// Superinstruction fusion: the peephole pass of the preparatory phase.
//
// The profile-guided op-pair histogram (internal/obs.OpStats, exposed by
// `ppd stats -ops`) shows that a handful of short sequences dominate the
// interpreter's dynamic dispatch: load/binop/store triples from assignments
// like `k = k + 1`, compare-and-branch pairs from loop conditions, and
// immediate stores from initializers. FuseCert recognizes those sequences and
// records a superinstruction for each match in a *side table* parallel to
// Func.Code — the original instructions are never rewritten, so jump
// targets, PC-keyed metadata (BlockMeta.PrelogPC/PostPC), breakpoints, and
// the emulation machinery all keep their meaning. The VM's table-driven
// dispatch (internal/vm) consults the side table at each pc and executes
// the whole sequence in one dispatch when the scheduling quantum and the
// instruction budget allow; otherwise it falls back to single-op dispatch,
// which keeps step counts, e-block boundaries, and ModeLog output
// byte-identical with fusion on or off.
//
// Only sequences that cannot fail are fused unconditionally: local and
// scalar-global loads, local stores, constants, the non-trapping binops,
// compares, and JmpFalse. Div and Mod are admitted in their
// constant-operand forms when the constant is non-zero (checked at fusion
// time). Beyond that, FuseCert accepts a SafetyCert — per-statement
// proofs from the abstract interpreter (internal/analysis/absint) that a
// division's divisor is nonzero or an indexed access is in bounds — which
// widens fusion to the certified div/mod and indexed-window shapes
// (SuperLLDivS…SuperIdxStoreG). Certified windows still carry the full
// single-op failure protocol as defense in depth: if a certificate is
// ever wrong, the handler reconstructs the exact single-op failure state
// (pc, step count, stack) instead of trapping, so failure reports stay
// byte-identical either way.
package bytecode

import (
	"fmt"
	"sort"
	"strings"

	"ppd/internal/ast"
)

// SuperOp identifies a superinstruction shape. The Bin field of the
// SuperInstr carries the constituent binop/compare opcode.
type SuperOp uint8

// Superinstruction shapes. Naming: L = LoadLocal, C = Const, G =
// LoadGlobal (scalar), Bin = arithmetic/compare binop, S = StoreLocal,
// CmpJf = compare + JmpFalse.
const (
	SuperNone SuperOp = iota

	SuperLLBinS      // loadl A; loadl B; bin; storel C   → slots[C] = slots[A] ∘ slots[B]
	SuperLCBinS      // loadl A; const K; bin; storel C   → slots[C] = slots[A] ∘ K
	SuperLLCmpJf     // loadl A; loadl B; cmp; jmpf T
	SuperLCCmpJf     // loadl A; const K; cmp; jmpf T
	SuperLGCmpJf     // loadl A; loadg B; cmp; jmpf T
	SuperLLBin       // loadl A; loadl B; bin             → push slots[A] ∘ slots[B]
	SuperLCBin       // loadl A; const K; bin             → push slots[A] ∘ K
	SuperLGBin       // loadl A; loadg B; bin             → push slots[A] ∘ globals[B]
	SuperLBin        // loadl A; bin                      → tos = tos ∘ slots[A]
	SuperCBin        // const K; bin                      → tos = tos ∘ K
	SuperConstStoreL // const K; storel A                 → slots[A] = K
	SuperCmpJf       // cmp; jmpf T                       → pops both operands

	// Certificate-gated shapes: emitted only when a SafetyCert proves the
	// trapping constituent (div/mod, indexed access) cannot fail.
	SuperLLDivS    // loadl A; loadl B; div|mod; storel C → slots[C] = slots[A] ∘ slots[B]
	SuperLLDiv     // loadl A; loadl B; div|mod           → push slots[A] ∘ slots[B]
	SuperLGDiv     // loadl A; loadg B; div|mod           → push slots[A] ∘ globals[B]
	SuperLDiv      // loadl A; div|mod                    → tos = tos ∘ slots[A]
	SuperIdxLoadL  // loadl B; loadxl A                   → push slots[A].arr[slots[B]]
	SuperIdxLoadG  // loadl B; loadxg A                   → push globals[A].arr[slots[B]]
	SuperIdxStoreL // loadl B; loadl C; storexl A        → slots[A].arr[slots[B]] = slots[C]
	SuperIdxStoreG // loadl B; loadl C; storexg A        → globals[A].arr[slots[B]] = slots[C]

	NumSuperOps
)

var superNames = [NumSuperOps]string{
	SuperNone:        "none",
	SuperLLBinS:      "llbins",
	SuperLCBinS:      "lcbins",
	SuperLLCmpJf:     "llcmpjf",
	SuperLCCmpJf:     "lccmpjf",
	SuperLGCmpJf:     "lgcmpjf",
	SuperLLBin:       "llbin",
	SuperLCBin:       "lcbin",
	SuperLGBin:       "lgbin",
	SuperLBin:        "lbin",
	SuperCBin:        "cbin",
	SuperConstStoreL: "conststorel",
	SuperCmpJf:       "cmpjf",
	SuperLLDivS:      "lldivs",
	SuperLLDiv:       "lldiv",
	SuperLGDiv:       "lgdiv",
	SuperLDiv:        "ldiv",
	SuperIdxLoadL:    "idxloadl",
	SuperIdxLoadG:    "idxloadg",
	SuperIdxStoreL:   "idxstorel",
	SuperIdxStoreG:   "idxstoreg",
}

// superGoNames are the exported identifiers, for generated source.
var superGoNames = [NumSuperOps]string{
	SuperNone:        "SuperNone",
	SuperLLBinS:      "SuperLLBinS",
	SuperLCBinS:      "SuperLCBinS",
	SuperLLCmpJf:     "SuperLLCmpJf",
	SuperLCCmpJf:     "SuperLCCmpJf",
	SuperLGCmpJf:     "SuperLGCmpJf",
	SuperLLBin:       "SuperLLBin",
	SuperLCBin:       "SuperLCBin",
	SuperLGBin:       "SuperLGBin",
	SuperLBin:        "SuperLBin",
	SuperCBin:        "SuperCBin",
	SuperConstStoreL: "SuperConstStoreL",
	SuperCmpJf:       "SuperCmpJf",
	SuperLLDivS:      "SuperLLDivS",
	SuperLLDiv:       "SuperLLDiv",
	SuperLGDiv:       "SuperLGDiv",
	SuperLDiv:        "SuperLDiv",
	SuperIdxLoadL:    "SuperIdxLoadL",
	SuperIdxLoadG:    "SuperIdxLoadG",
	SuperIdxStoreL:   "SuperIdxStoreL",
	SuperIdxStoreG:   "SuperIdxStoreG",
}

func (o SuperOp) String() string {
	if o < NumSuperOps {
		return superNames[o]
	}
	return fmt.Sprintf("super(%d)", int(o))
}

// SuperInstr is one fused sequence, recorded at the pc of its first
// constituent instruction. W is the number of instructions covered; the
// dispatcher advances the pc (and the step counter) by W in one go.
type SuperInstr struct {
	Op   SuperOp
	W    uint8
	Bin  Op    // constituent binop/compare
	A, B int   // slot / global operands
	C    int   // destination slot (…S shapes)
	K    int64 // constant operand (…C shapes)
	T    int   // branch target (…CmpJf shapes)
}

// FusionPattern is one enabled superinstruction shape with the dynamic
// dispatch count measured when the table was profiled (the count is
// documentation; only Op affects compilation).
type FusionPattern struct {
	Op   SuperOp
	Hits int64
}

// FusionTable is the set of superinstruction shapes the fusion pass may
// emit. The checked-in default (fusiontable_gen.go) is profile-guided:
// regenerated from the op-pair counters over the standard workloads by
// TestFusionTableFresh (PPD_UPDATE_FUSION=1).
type FusionTable struct {
	Patterns []FusionPattern
}

// DefaultFusionTable returns the checked-in profile-guided table.
func DefaultFusionTable() *FusionTable {
	return &FusionTable{Patterns: defaultFusionPatterns}
}

// Fingerprint identifies the enabled shape set for cache keys: compiled
// artifacts fused under different tables must not collide in the artifact
// cache. A nil or empty table (fusion disabled) reports "off".
func (t *FusionTable) Fingerprint() string {
	if t == nil || len(t.Patterns) == 0 {
		return "off"
	}
	en := t.enabled()
	var names []string
	for op := SuperNone + 1; op < NumSuperOps; op++ {
		if en[op] {
			names = append(names, superNames[op])
		}
	}
	if len(names) == 0 {
		return "off"
	}
	return strings.Join(names, "+")
}

func (t *FusionTable) enabled() (en [NumSuperOps]bool) {
	if t == nil {
		return en
	}
	for _, p := range t.Patterns {
		if p.Op > SuperNone && p.Op < NumSuperOps {
			en[p.Op] = true
		}
	}
	return en
}

// SafetyCert carries the abstract interpreter's per-statement proofs that
// widen fusion beyond the syntactically infallible shapes. Div[id] means
// every division/modulo in statement id has a provably nonzero divisor;
// Idx[id] means every indexed access in it is provably in bounds. The
// statement granularity is sound for fused windows because within one MPL
// statement the operand slots a window reads cannot change between the
// statement's entry (where the facts hold) and the trapping instruction:
// locals are only written by the statement's trailing store, and a
// certified global divisor is by construction never written anywhere in
// the program.
type SafetyCert struct {
	Div map[ast.StmtID]bool
	Idx map[ast.StmtID]bool
}

func (c *SafetyCert) divOK(in *Instr) bool { return c != nil && c.Div[in.Stmt] }
func (c *SafetyCert) idxOK(in *Instr) bool { return c != nil && c.Idx[in.Stmt] }

// divBin reports a trapping division opcode.
func divBin(op Op) bool { return op == OpDiv || op == OpMod }

// CertOnly reports whether the shape requires a safety certificate.
func (o SuperOp) CertOnly() bool { return o >= SuperLLDivS && o < NumSuperOps }

// FuseCert populates each function's Super side table with the enabled
// superinstructions, matching greedily (longest shape first) at every pc —
// every pc gets its best match independently, so a sequence entered from
// the middle (a jump target) or resumed after a quantum boundary still
// finds whatever shorter match starts there. A nil table clears the side
// tables (fusion off). Without a certificate only the infallible shapes
// match; a safety certificate admits the proven-safe div/mod and
// indexed-window shapes. It returns the total fused sites and how many of
// them exist only because of the certificate (the widening's reach,
// surfaced as the fusion.windows.widened counter); the latter is also
// recorded on the program for cache round-trips.
func FuseCert(p *Program, t *FusionTable, cert *SafetyCert) (total, widened int) {
	en := t.enabled()
	any := false
	for op := SuperNone + 1; op < NumSuperOps; op++ {
		any = any || en[op]
	}
	for _, f := range p.Funcs {
		f.Super = nil
		if !any {
			continue
		}
		for pc := range f.Code {
			s := matchAt(f.Code, pc, &en, cert)
			if s.Op == SuperNone {
				continue
			}
			if f.Super == nil {
				f.Super = make([]SuperInstr, len(f.Code))
			}
			f.Super[pc] = s
			total++
			if s.Op.CertOnly() {
				widened++
			}
		}
	}
	p.WidenedSuper = widened
	return total, widened
}

// infallibleBin reports whether op is a binop/compare that can never fail
// (everything except the trapping Div/Mod).
func infallibleBin(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// constBin reports whether op may be fused with constant right operand k:
// Div/Mod are admitted only when k is non-zero, so the fused form cannot
// trap.
func constBin(op Op, k int64) bool {
	if infallibleBin(op) {
		return true
	}
	return (op == OpDiv || op == OpMod) && k != 0
}

func cmpOp(op Op) bool {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// matchAt finds the longest enabled superinstruction starting at pc. cert
// (nilable) admits the proven-safe div/mod and indexed shapes.
func matchAt(code []Instr, pc int, en *[NumSuperOps]bool, cert *SafetyCert) SuperInstr {
	n := len(code)
	in0 := &code[pc]
	switch in0.Op {
	case OpLoadLocal:
		if pc+1 >= n {
			break
		}
		in1 := &code[pc+1]
		switch in1.Op {
		case OpLoadLocal:
			if pc+2 >= n {
				break
			}
			in2 := &code[pc+2]
			bin := in2.Op
			if pc+3 < n {
				in3 := &code[pc+3]
				if en[SuperLLBinS] && infallibleBin(bin) && in3.Op == OpStoreLocal {
					return SuperInstr{Op: SuperLLBinS, W: 4, Bin: bin, A: in0.A, B: in1.A, C: in3.A}
				}
				if en[SuperLLDivS] && divBin(bin) && cert.divOK(in2) && in3.Op == OpStoreLocal {
					return SuperInstr{Op: SuperLLDivS, W: 4, Bin: bin, A: in0.A, B: in1.A, C: in3.A}
				}
				if en[SuperLLCmpJf] && cmpOp(bin) && in3.Op == OpJmpFalse {
					return SuperInstr{Op: SuperLLCmpJf, W: 4, Bin: bin, A: in0.A, B: in1.A, T: in3.A}
				}
			}
			if en[SuperLLBin] && infallibleBin(bin) {
				return SuperInstr{Op: SuperLLBin, W: 3, Bin: bin, A: in0.A, B: in1.A}
			}
			if en[SuperLLDiv] && divBin(bin) && cert.divOK(in2) {
				return SuperInstr{Op: SuperLLDiv, W: 3, Bin: bin, A: in0.A, B: in1.A}
			}
			if en[SuperIdxStoreL] && bin == OpStoreIndexedL && cert.idxOK(in2) {
				return SuperInstr{Op: SuperIdxStoreL, W: 3, A: in2.A, B: in0.A, C: in1.A}
			}
			if en[SuperIdxStoreG] && bin == OpStoreIndexedG && cert.idxOK(in2) {
				return SuperInstr{Op: SuperIdxStoreG, W: 3, A: in2.A, B: in0.A, C: in1.A}
			}
		case OpConst:
			if pc+2 >= n {
				break
			}
			k := int64(in1.A)
			bin := code[pc+2].Op
			if pc+3 < n {
				in3 := &code[pc+3]
				if en[SuperLCBinS] && constBin(bin, k) && in3.Op == OpStoreLocal {
					return SuperInstr{Op: SuperLCBinS, W: 4, Bin: bin, A: in0.A, K: k, C: in3.A}
				}
				if en[SuperLCCmpJf] && cmpOp(bin) && in3.Op == OpJmpFalse {
					return SuperInstr{Op: SuperLCCmpJf, W: 4, Bin: bin, A: in0.A, K: k, T: in3.A}
				}
			}
			if en[SuperLCBin] && constBin(bin, k) {
				return SuperInstr{Op: SuperLCBin, W: 3, Bin: bin, A: in0.A, K: k}
			}
		case OpLoadGlobal:
			if pc+2 >= n {
				break
			}
			in2 := &code[pc+2]
			bin := in2.Op
			if pc+3 < n && en[SuperLGCmpJf] && cmpOp(bin) && code[pc+3].Op == OpJmpFalse {
				return SuperInstr{Op: SuperLGCmpJf, W: 4, Bin: bin, A: in0.A, B: in1.A, T: code[pc+3].A}
			}
			if en[SuperLGBin] && infallibleBin(bin) {
				return SuperInstr{Op: SuperLGBin, W: 3, Bin: bin, A: in0.A, B: in1.A}
			}
			if en[SuperLGDiv] && divBin(bin) && cert.divOK(in2) {
				return SuperInstr{Op: SuperLGDiv, W: 3, Bin: bin, A: in0.A, B: in1.A}
			}
		case OpLoadIndexedL:
			if en[SuperIdxLoadL] && cert.idxOK(in1) {
				return SuperInstr{Op: SuperIdxLoadL, W: 2, A: in1.A, B: in0.A}
			}
		case OpLoadIndexedG:
			if en[SuperIdxLoadG] && cert.idxOK(in1) {
				return SuperInstr{Op: SuperIdxLoadG, W: 2, A: in1.A, B: in0.A}
			}
		default:
			if en[SuperLBin] && infallibleBin(in1.Op) {
				return SuperInstr{Op: SuperLBin, W: 2, Bin: in1.Op, A: in0.A}
			}
			if en[SuperLDiv] && divBin(in1.Op) && cert.divOK(in1) {
				return SuperInstr{Op: SuperLDiv, W: 2, Bin: in1.Op, A: in0.A}
			}
		}
	case OpConst:
		if pc+1 >= n {
			break
		}
		in1 := &code[pc+1]
		k := int64(in0.A)
		if en[SuperConstStoreL] && in1.Op == OpStoreLocal {
			return SuperInstr{Op: SuperConstStoreL, W: 2, A: in1.A, K: k}
		}
		if en[SuperCBin] && constBin(in1.Op, k) {
			return SuperInstr{Op: SuperCBin, W: 2, Bin: in1.Op, K: k}
		}
	default:
		if en[SuperCmpJf] && cmpOp(in0.Op) && pc+1 < n && code[pc+1].Op == OpJmpFalse {
			return SuperInstr{Op: SuperCmpJf, W: 2, Bin: in0.Op, T: code[pc+1].A}
		}
	}
	return SuperInstr{}
}

// NumSuper counts fused sites across the program (a code-size metric).
func (p *Program) NumSuper() int {
	n := 0
	for _, f := range p.Funcs {
		for i := range f.Super {
			if f.Super[i].Op != SuperNone {
				n++
			}
		}
	}
	return n
}

// FormatFusionTableSource renders fusiontable_gen.go from per-shape hit
// counts (indexed by SuperOp): shapes that fired while profiling the
// standard workloads, ordered by dynamic dispatch count. The output is
// deterministic so CI can diff the checked-in file against a regeneration.
func FormatFusionTableSource(hits []int64) string {
	type row struct {
		op   SuperOp
		hits int64
	}
	var rows []row
	for op := SuperNone + 1; op < NumSuperOps; op++ {
		if int(op) < len(hits) && hits[op] > 0 {
			rows = append(rows, row{op, hits[op]})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].hits != rows[j].hits {
			return rows[i].hits > rows[j].hits
		}
		return rows[i].op < rows[j].op
	})
	var b strings.Builder
	b.WriteString(`// Code generated by TestFusionTableFresh; DO NOT EDIT.
// Regenerate: PPD_UPDATE_FUSION=1 go test ./internal/vm -run TestFusionTableFresh

package bytecode

// defaultFusionPatterns is the profile-guided superinstruction set: every
// candidate shape that fired at least once while profiling the standard
// workloads (seeds 0 and 3) under ModeRun with all shapes enabled, ordered
// by dynamic dispatch count.
var defaultFusionPatterns = []FusionPattern{
`)
	for _, r := range rows {
		fmt.Fprintf(&b, "\t{Op: %s, Hits: %d},\n", superGoNames[r.op], r.hits)
	}
	b.WriteString("}\n")
	return b.String()
}

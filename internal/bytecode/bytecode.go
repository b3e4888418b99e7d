// Package bytecode defines PPD's executable representation: a stack-machine
// instruction set produced by the Compiler/Linker (§3.2.1).
//
// The same code serves as both the paper's "object code" and its "emulation
// package": instrumentation points (prelog/postlog/shared-prelog markers and
// statement tags) are compiled in once, and the VM's execution mode decides
// what each point does — write a log record (execution phase), emit a trace
// event (debugging-phase emulation), or nothing (uninstrumented runs used as
// the overhead baseline).
package bytecode

import (
	"fmt"
	"strings"

	"ppd/internal/ast"
)

// Op is an opcode.
type Op uint8

// Instruction set.
const (
	OpNop Op = iota

	// Values and variables.
	OpConst         // push A
	OpPop           // discard TOS
	OpLoadLocal     // push slots[A]
	OpStoreLocal    // slots[A] = pop
	OpLoadGlobal    // push globals[A]
	OpStoreGlobal   // globals[A] = pop
	OpLoadIndexedL  // i=pop; push slots[A].arr[i]
	OpStoreIndexedL // v=pop; i=pop; slots[A].arr[i]=v
	OpLoadIndexedG  // i=pop; push globals[A].arr[i]
	OpStoreIndexedG // v=pop; i=pop; globals[A].arr[i]=v

	// Arithmetic and logic (operate on the int64 stack; booleans are 0/1).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Control flow. For OpJmpFalse, B==1 marks the statement's main
	// predicate (trace emits the outcome); B==0 marks internal
	// short-circuit jumps.
	OpJmp      // pc = A
	OpJmpFalse // if pop==0 pc = A
	OpJmpTrue  // if pop!=0 pc = A

	// Calls and processes.
	OpCall     // call function A with B args (popped; leftmost deepest)
	OpRet      // return void
	OpRetValue // return pop
	OpSpawn    // spawn function A with B args

	// Synchronization.
	OpSemP // P(globals[A])
	OpSemV // V(globals[A])
	OpSend // send(chan A, pop)
	OpRecv // push recv(chan A)

	// Output.
	OpPrintStr // print Strings[A]
	OpPrintVal // print pop
	OpPrintNl  // newline

	// Instrumentation markers.
	OpPrelog   // e-block A entry
	OpPostlog  // e-block A exit; B==1: return value is on TOS
	OpShPrelog // shared prelog for unit table entry A

	// NumOps bounds the opcode space (profiling histograms, dispatch
	// tables). Keep it last.
	NumOps
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpPop: "pop",
	OpLoadLocal: "loadl", OpStoreLocal: "storel",
	OpLoadGlobal: "loadg", OpStoreGlobal: "storeg",
	OpLoadIndexedL: "loadxl", OpStoreIndexedL: "storexl",
	OpLoadIndexedG: "loadxg", OpStoreIndexedG: "storexg",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpJmp: "jmp", OpJmpFalse: "jmpf", OpJmpTrue: "jmpt",
	OpCall: "call", OpRet: "ret", OpRetValue: "retv", OpSpawn: "spawn",
	OpSemP: "semp", OpSemV: "semv", OpSend: "send", OpRecv: "recv",
	OpPrintStr: "prstr", OpPrintVal: "prval", OpPrintNl: "prnl",
	OpPrelog: "prelog", OpPostlog: "postlog", OpShPrelog: "shprelog",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one instruction. Stmt tags the source statement for logs,
// traces, and the debugger.
type Instr struct {
	Op   Op
	A, B int
	Stmt ast.StmtID
}

// UnitLog is a shared-prelog site: the shared globals (GlobalIDs) that may
// be read in the synchronization unit starting at Stmt.
type UnitLog struct {
	Stmt    ast.StmtID
	Globals []int
}

// Func is one compiled function.
type Func struct {
	Idx       int
	Name      string
	NumParams int
	NumSlots  int
	HasResult bool
	Code      []Instr
	Units     []UnitLog

	// BlockID is the function's e-block, or -1 when inlined into callers.
	BlockID int

	// ParamSlots lists the frame slots of the parameters in order.
	ParamSlots []int

	// ArraySlots maps local slots to array lengths for frame setup.
	ArraySlots map[int]int

	// PrelogAt maps an e-block ID to the PC of its OpPrelog in Code,
	// precomputed at compile time (and persisted by the artifact codec) so
	// emulation finds an interval's start PC with a map hit instead of a
	// code scan — inlined callees put prelogs at arbitrary PCs. nil when
	// the function carries no prelogs (bare compilation).
	PrelogAt map[int]int

	// Super is the superinstruction side table produced by FuseCert: parallel
	// to Code, Super[pc].Op != SuperNone means the fused sequence of
	// Super[pc].W instructions starts at pc. Code itself is never
	// rewritten, so all PC-based metadata stays valid; nil when the
	// function has no fused sites (or fusion is disabled).
	Super []SuperInstr
}

// GlobalKind classifies runtime globals.
type GlobalKind uint8

// Global kinds.
const (
	GlobalVar GlobalKind = iota
	GlobalSem
	GlobalChan
)

// GlobalDef describes one global's runtime shape.
type GlobalDef struct {
	Name    string
	Kind    GlobalKind
	IsArray bool
	Len     int   // array length or channel capacity
	Init    int64 // initial value / semaphore count
	HasInit bool
	// InitFunc: when the initializer is a non-constant expression, it is
	// compiled into the program's init function and this is false.
	Shared bool // participates in race detection (vars only)
}

// BlockKind mirrors eblock.Kind without importing it (bytecode stays a leaf
// package the VM can depend on cheaply).
type BlockKind uint8

// E-block kinds as seen by the runtime.
const (
	BlockFunc BlockKind = iota
	BlockLoop
)

// BlockMeta is the runtime view of one e-block: exactly what the VM must
// snapshot at its prelog and postlog points.
type BlockMeta struct {
	ID       int
	Kind     BlockKind
	FuncIdx  int
	LoopStmt ast.StmtID // BlockLoop only

	UsedLocals     []int // frame slots to record in the prelog
	UsedGlobals    []int // GlobalIDs to record in the prelog
	DefinedLocals  []int // frame slots to record in the postlog (loops)
	DefinedGlobals []int // GlobalIDs to record in the postlog
	HasRet         bool  // function blocks with a result

	// PrelogPC is the instruction index of the block's OpPrelog; PostPC is
	// the index of its OpPostlog (loop blocks have exactly one — emulation
	// jumps past it when substituting the loop's postlog; function blocks
	// may have several and leave PostPC at -1).
	PrelogPC int
	PostPC   int
}

// Program is a complete compiled MPL program.
type Program struct {
	Funcs   []*Func
	FuncIdx map[string]int
	Globals []GlobalDef
	Strings []string
	Blocks  []*BlockMeta // indexed by e-block ID
	MainIdx int

	// WidenedSuper counts fused sites admitted only by an absint safety
	// certificate (set by FuseCert, persisted by the artifact codec so a
	// warm cache load reports the same fusion.windows.widened counter).
	WidenedSuper int
}

// PrelogPCAt returns the PC of block blockID's OpPrelog in f.Code, or -1
// when the function has no prelog for that block. Compiled programs carry
// the precomputed index; hand-built Funcs (tests) fall back to a scan.
func (f *Func) PrelogPCAt(blockID int) int {
	if f.PrelogAt != nil {
		if pc, ok := f.PrelogAt[blockID]; ok {
			return pc
		}
		return -1
	}
	for pc, in := range f.Code {
		if in.Op == OpPrelog && in.A == blockID {
			return pc
		}
	}
	return -1
}

// BuildPrelogIndex computes PrelogAt from Code (first OpPrelog per block
// ID, matching the scan's first-match semantics). The compiler calls it
// once per function at the end of code generation.
func (f *Func) BuildPrelogIndex() {
	var idx map[int]int
	for pc, in := range f.Code {
		if in.Op != OpPrelog {
			continue
		}
		if idx == nil {
			idx = make(map[int]int)
		}
		if _, ok := idx[in.A]; !ok {
			idx[in.A] = pc
		}
	}
	f.PrelogAt = idx
}

// FuncByName returns the compiled function, or nil.
func (p *Program) FuncByName(name string) *Func {
	if i, ok := p.FuncIdx[name]; ok {
		return p.Funcs[i]
	}
	return nil
}

// NumInstrs returns the total instruction count (a code-size metric).
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}

// Disasm renders a function's code for tests and `ppd dump`.
func (f *Func) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (params=%d slots=%d block=%d):\n",
		f.Name, f.NumParams, f.NumSlots, f.BlockID)
	for pc, in := range f.Code {
		fmt.Fprintf(&b, "  %4d  %-8s", pc, in.Op)
		switch in.Op {
		case OpConst, OpLoadLocal, OpStoreLocal, OpLoadGlobal, OpStoreGlobal,
			OpLoadIndexedL, OpStoreIndexedL, OpLoadIndexedG, OpStoreIndexedG,
			OpJmp, OpSemP, OpSemV, OpSend, OpRecv, OpPrintStr,
			OpPrelog, OpShPrelog:
			fmt.Fprintf(&b, " %d", in.A)
		case OpJmpFalse, OpJmpTrue, OpCall, OpSpawn, OpPostlog:
			fmt.Fprintf(&b, " %d %d", in.A, in.B)
		}
		if in.Stmt != ast.NoStmt {
			fmt.Fprintf(&b, "\t; s%d", in.Stmt)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Disasm renders the whole program.
func (p *Program) Disasm() string {
	var b strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&b, "global %s kind=%d array=%t len=%d init=%d\n",
			g.Name, g.Kind, g.IsArray, g.Len, g.Init)
	}
	for _, f := range p.Funcs {
		b.WriteString(f.Disasm())
	}
	return b.String()
}

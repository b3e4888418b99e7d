// Package emulation implements the debugging phase's re-execution machinery
// (§5.1–§5.3): given a process's log and the index of a prelog record, it
// re-executes that e-block instance in isolation and produces the full trace
// the execution phase deliberately did not generate.
//
// Replay rules:
//
//   - the root prelog initializes the frame (parameters / used locals) and
//     the used globals;
//   - shared prelogs (§5.5) re-supply shared-variable values at sync-unit
//     starts, reproducing other processes' interleaved writes;
//   - synchronization operations perform no real synchronization; recv
//     returns the logged value;
//   - calls to functions with their own e-blocks are substituted by their
//     postlogs (§5.2's nested log intervals) — unless the callee's postlog
//     is missing (the program halted inside it), in which case the callee
//     is re-executed from its own records;
//   - nested loop e-blocks are likewise substituted by their postlogs, with
//     the PC jumped past the loop.
//
// The result is an exact replay of the interval's local events at a small
// fraction of the cost of re-running the program.
package emulation

import (
	"fmt"
	"sync/atomic"

	"ppd/internal/bytecode"
	"ppd/internal/logging"
	"ppd/internal/trace"
	"ppd/internal/vm"
)

// Outcome is how a replay of one e-block instance ended — everything a
// what-if reports, and the part of a Result that needs no trace.
type Outcome struct {
	// Globals is the global state at the end of the emulated interval.
	Globals []vm.Value
	// Completed reports whether the interval's own postlog was reached
	// (false when the program originally halted inside the interval).
	Completed bool
	// Err is the runtime failure reproduced during replay, if any (the
	// original failure the user is debugging), or vm.ErrBudget when the
	// replay ran out of instruction budget.
	Err error
	// Steps is the number of instructions the replay executed.
	Steps int64
}

// Result is the outcome of emulating one e-block instance, with the trace
// the replay recorded.
type Result struct {
	Outcome
	// Trace is the interval's full event trace (nil for an untraced
	// what-if replay: see EmulateFresh).
	Trace *trace.Buffer
	// RecordsConsumed is how many log records the interval covered
	// (including the root prelog and postlog).
	RecordsConsumed int
}

// Emulator re-executes e-block instances of one process. Prog and Book are
// read-only during emulation, so one Emulator may run any number of
// Emulate/EmulateFresh calls concurrently (each checks a replay context
// out of the pool, or builds a fresh VM) — the Controller's prefetcher
// relies on this.
type Emulator struct {
	Prog *bytecode.Program
	Book *logging.Book

	// Generic forces every Emulate through a fresh VM driven by the
	// generic instruction loop — the byte-identity oracle the pooled
	// fast-dispatch path is pinned against in tests and benchmarks — and
	// every EmulateFresh through a fresh VM that records the full trace.
	Generic bool

	// pool supplies reusable replay contexts. New installs a private
	// bounded pool; the controller replaces it with one shared across all
	// per-process emulators (SetPool).
	pool *Pool

	// runs counts VM re-executions performed (Emulate + EmulateFresh) —
	// the hook the Controller's cache tests and benchmarks observe to
	// prove a query was served memoized.
	runs atomic.Int64
}

// New returns an emulator over a process's log book.
func New(prog *bytecode.Program, book *logging.Book) *Emulator {
	return &Emulator{Prog: prog, Book: book, pool: NewPool(prog, DefaultPoolBound, nil)}
}

// SetPool installs a shared replay-context pool. The controller points
// every process's emulator (and the prefetcher behind them) at one bounded
// pool so concurrent sessions cannot hoard a VM per in-flight query.
func (e *Emulator) SetPool(p *Pool) {
	if p != nil {
		e.pool = p
	}
}

// Emulations returns how many VM re-executions this emulator has performed.
// A cached query leaves the counter untouched.
func (e *Emulator) Emulations() int64 { return e.runs.Load() }

// FindLastOpenPrelog locates "the last prelog whose corresponding postlog
// has not yet been generated" (§5.3) — the interval the program halted in.
// It returns the record index, or -1 when every interval completed.
func (e *Emulator) FindLastOpenPrelog() int {
	var stack []int
	for i, r := range e.Book.Records {
		switch r.Kind {
		case logging.RecPrelog:
			stack = append(stack, i)
		case logging.RecPostlog:
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	if len(stack) == 0 {
		return -1
	}
	return stack[len(stack)-1]
}

// PrelogIndices returns the record indices of every prelog of the given
// e-block, in execution order (a block executed n times has n intervals).
func (e *Emulator) PrelogIndices(blockID int) []int {
	var out []int
	for i, r := range e.Book.Records {
		if r.Kind == logging.RecPrelog && int(r.Block) == blockID {
			out = append(out, i)
		}
	}
	return out
}

// LastPrelog returns the record index of the final prelog in the book, or
// -1 for an empty book.
func (e *Emulator) LastPrelog() int {
	for i := len(e.Book.Records) - 1; i >= 0; i-- {
		if e.Book.Records[i].Kind == logging.RecPrelog {
			return i
		}
	}
	return -1
}

// FirstPrelog returns the record index of the process's outermost interval
// (its entry function), or -1 for an empty book.
func (e *Emulator) FirstPrelog() int {
	for i, r := range e.Book.Records {
		if r.Kind == logging.RecPrelog {
			return i
		}
	}
	return -1
}

// Emulate re-executes the e-block instance whose prelog is at record index
// prelogIdx. The Result (and its trace buffer) are freshly allocated and
// owned by the caller — the controller's cache retains them indefinitely.
func (e *Emulator) Emulate(prelogIdx int) (*Result, error) {
	res := &Result{}
	if err := e.EmulateInto(prelogIdx, res); err != nil {
		return nil, err
	}
	return res, nil
}

// EmulateInto is Emulate writing into a caller-recycled Result: res.Trace
// (if non-nil) and res.Globals are reused as scratch, so a caller that
// consumes each result before the next call — the benchmark loop, a
// drive-to-fault scan — replays with near-zero steady-state allocation.
// Validation errors are returned; reproduced runtime failures land in
// res.Err exactly as in Emulate.
func (e *Emulator) EmulateInto(prelogIdx int, res *Result) error {
	if prelogIdx < 0 || prelogIdx >= len(e.Book.Records) {
		return fmt.Errorf("emulation: prelog index %d out of range", prelogIdx)
	}
	pre := e.Book.Records[prelogIdx]
	if pre.Kind != logging.RecPrelog {
		return fmt.Errorf("emulation: record %d is %s, not a prelog", prelogIdx, pre.Kind)
	}
	e.runs.Add(1)
	if e.Generic {
		return e.emulateGeneric(prelogIdx, pre, res)
	}
	tb := res.Trace
	if tb == nil {
		tb = &trace.Buffer{}
	}
	tb.Reset(0)
	ctx := e.pool.get()
	ctx.h = hooks{
		em:      e,
		machine: ctx.machine,
		cursor:  prelogIdx + 1,
		root:    int(pre.Block),
	}
	proc := ctx.start(e.Prog, pre, &ctx.h, tb)
	runErr := ctx.machine.RunEmu(proc)
	e.pool.note(ctx.machine.EmuDispatchStats())

	res.Trace = proc.Tbuf
	res.Globals = ctx.machine.SnapshotInto(res.Globals)
	res.RecordsConsumed = ctx.h.cursor - prelogIdx
	res.Completed = ctx.h.sawRootPostlog
	res.Err = runErr
	res.Steps = ctx.machine.Steps
	e.pool.put(ctx)
	return nil
}

// start positions the context's VM at the start of the interval whose
// prelog is pre, with hooks installed and tb as the trace buffer (nil
// runs untraced). The initial frame is built from the prelog in the
// context's slot scratch: slots the prelog does not cover must come out
// as zero Values — StartEmuProc's overlay clones every caller slot, zeros
// included, so the fresh-VM path never sees frame-setup arrays either.
// The prelog's used globals go on top of the initial values ResetEmu
// restored (recycling array backing where lengths match).
func (ctx *Context) start(prog *bytecode.Program, pre *logging.Record, h vm.Hooks, tb *trace.Buffer) *vm.Proc {
	meta := prog.Blocks[pre.Block]
	fn := prog.Funcs[meta.FuncIdx]
	machine := ctx.machine
	machine.ResetEmu()
	machine.SetHooks(h)

	slots := ctx.slots
	if cap(slots) < fn.NumSlots {
		slots = make([]vm.Value, fn.NumSlots)
	}
	slots = slots[:fn.NumSlots]
	cover := ctx.cover
	if cap(cover) < fn.NumSlots {
		cover = make([]bool, fn.NumSlots)
	}
	cover = cover[:fn.NumSlots]
	clear(cover)
	for slot, val := range pre.Locals.All() {
		if slot < len(slots) {
			slots[slot] = cloneInto(slots[slot], val)
			cover[slot] = true
		}
	}
	for i := range slots {
		if !cover[i] {
			slots[i] = vm.Value{}
		}
	}
	ctx.slots, ctx.cover = slots, cover
	proc := machine.StartEmuProcOwned(fn, slots, startPC(prog, pre), tb)
	for gid, val := range pre.Globals.All() {
		machine.Globals[gid] = cloneInto(machine.Globals[gid], val)
	}
	return proc
}

// startPC is the instruction after the prelog that opens pre's interval.
func startPC(prog *bytecode.Program, pre *logging.Record) int {
	meta := prog.Blocks[pre.Block]
	if meta.Kind == bytecode.BlockFunc {
		return prog.Funcs[meta.FuncIdx].PrelogPCAt(int(pre.Block)) + 1
	}
	return meta.PrelogPC + 1
}

// emulateGeneric is the original Emulate body, kept as the oracle: a fresh
// VM per call, generic single-step dispatch, no pooled state anywhere.
func (e *Emulator) emulateGeneric(prelogIdx int, pre *logging.Record, res *Result) error {
	machine := vm.New(e.Prog, vm.Options{Mode: vm.ModeEmulate, EmuGeneric: true})
	h := &hooks{
		em:      e,
		machine: machine,
		cursor:  prelogIdx + 1,
		root:    int(pre.Block),
	}
	machine.SetHooks(h)
	proc := startFresh(machine, pre)
	runErr := machine.RunEmu(proc)
	res.Trace = proc.Tbuf
	res.Globals = machine.Snapshot()
	res.RecordsConsumed = h.cursor - prelogIdx
	res.Completed = h.sawRootPostlog
	res.Err = runErr
	res.Steps = machine.Steps
	return nil
}

// startFresh starts the emulation process of a newly built VM at pre's
// interval: the frame and the used globals are clones of the prelog's
// values, and the process records a trace.
func startFresh(machine *vm.VM, pre *logging.Record) *vm.Proc {
	fn := machine.Prog.Funcs[machine.Prog.Blocks[pre.Block].FuncIdx]
	slots := make([]vm.Value, fn.NumSlots)
	for slot, val := range pre.Locals.All() {
		if slot < len(slots) {
			slots[slot] = val.Clone()
		}
	}
	proc := machine.StartEmuProc(fn, slots, startPC(machine.Prog, pre))
	for gid, val := range pre.Globals.All() {
		machine.Globals[gid] = val.Clone()
	}
	return proc
}

// cloneInto is val.Clone() that recycles dst's array backing when the
// lengths line up. Log records are immutable by contract, so copying the
// elements (never aliasing val.Arr) preserves the same isolation Clone
// gives the fresh-VM path.
func cloneInto(dst, val vm.Value) vm.Value {
	if val.Arr == nil {
		return vm.Value{Int: val.Int}
	}
	if len(dst.Arr) == len(val.Arr) {
		copy(dst.Arr, val.Arr)
		return vm.Value{Int: val.Int, Arr: dst.Arr}
	}
	return val.Clone()
}

// hooks implements vm.Hooks by replaying the log from a cursor.
type hooks struct {
	em      *Emulator
	machine *vm.VM
	cursor  int
	root    int
	// depth counts re-executed nested blocks (callee re-execution when a
	// postlog was missing), so we know which postlog is the root's.
	reexecDepth    int
	sawRootPostlog bool
}

func (h *hooks) next() *logging.Record {
	if h.cursor >= len(h.em.Book.Records) {
		return nil
	}
	r := h.em.Book.Records[h.cursor]
	h.cursor++
	return r
}

// peek returns the next record without consuming it.
func (h *hooks) peek() *logging.Record {
	if h.cursor >= len(h.em.Book.Records) {
		return nil
	}
	return h.em.Book.Records[h.cursor]
}

func (h *hooks) OnSync(p *vm.Proc, op logging.SyncOp, obj int) (int64, error) {
	r := h.next()
	if r == nil {
		return 0, fmt.Errorf("log exhausted replaying %s", op)
	}
	if r.Kind != logging.RecSync || r.Op != op {
		return 0, fmt.Errorf("log divergence: replaying %s found %s", op, r)
	}
	return r.Value, nil
}

func (h *hooks) OnShPrelog(p *vm.Proc, unit bytecode.UnitLog) error {
	r := h.next()
	if r == nil {
		return fmt.Errorf("log exhausted replaying shared prelog")
	}
	if r.Kind != logging.RecShPrelog {
		return fmt.Errorf("log divergence: expected shared prelog, found %s", r)
	}
	// Re-supply shared values as of execution time (§5.5).
	for gid, val := range r.Globals.All() {
		h.machine.Globals[gid] = val.Clone()
	}
	return nil
}

func (h *hooks) OnCall(p *vm.Proc, callee *bytecode.Func, args []int64) (bool, int64, bool, error) {
	if callee.BlockID < 0 {
		return false, 0, false, nil // inlined: re-execute
	}
	// The next record must be the callee's prelog; find its matching
	// postlog by depth counting (§5.2).
	r := h.peek()
	if r == nil || r.Kind != logging.RecPrelog || int(r.Block) != callee.BlockID {
		return false, 0, false, fmt.Errorf(
			"log divergence: call of %s expected its prelog, found %v", callee.Name, r)
	}
	depth := 0
	for j := h.cursor; j < len(h.em.Book.Records); j++ {
		switch h.em.Book.Records[j].Kind {
		case logging.RecPrelog:
			depth++
		case logging.RecPostlog:
			depth--
			if depth == 0 {
				post := h.em.Book.Records[j]
				for gid, val := range post.Globals.All() {
					h.machine.Globals[gid] = val.Clone()
				}
				h.cursor = j + 1
				// Record the substitution for the dynamic graph: a
				// sub-graph node for the skipped callee, then the applied
				// postlog values as writes attributed to the call site.
				caller := p.Frames[len(p.Frames)-1]
				stmt := caller.Fn.Code[caller.PC-1].Stmt
				var ret int64
				hasRet := false
				if post.Ret != nil {
					ret, hasRet = post.Ret.Int, true
				}
				p.Tbuf.Append(trace.Event{
					Kind: trace.EvCallSkipped, Stmt: stmt,
					FuncIdx: callee.Idx, Args: args, Value: ret, HasValue: hasRet,
				})
				for gid, val := range post.Globals.All() {
					if !val.IsArray() {
						p.Tbuf.Append(trace.Event{
							Kind: trace.EvWrite, Stmt: stmt,
							Var: caller.Fn.NumSlots + gid, Idx: -1, Value: val.Int,
						})
					} else {
						p.Tbuf.Append(trace.Event{
							Kind: trace.EvWrite, Stmt: stmt,
							Var: caller.Fn.NumSlots + gid, Idx: -1,
						})
					}
				}
				return true, ret, hasRet, nil
			}
		}
	}
	// No matching postlog: the program halted inside this callee. Fall back
	// to re-executing it; its prelog will be consumed by OnPrelog.
	h.reexecDepth++
	return false, 0, false, nil
}

func (h *hooks) OnPrelog(p *vm.Proc, blockID int) (bool, error) {
	meta := h.em.Prog.Blocks[blockID]
	switch meta.Kind {
	case bytecode.BlockFunc:
		// A re-executed callee's prelog: consume and apply (healing any
		// divergence in globals the callee is about to read).
		r := h.next()
		if r == nil {
			return false, fmt.Errorf("log exhausted at %s's prelog", h.em.Prog.Funcs[meta.FuncIdx].Name)
		}
		if r.Kind != logging.RecPrelog || int(r.Block) != blockID {
			return false, fmt.Errorf("log divergence: expected prelog of block %d, found %s", blockID, r)
		}
		for gid, val := range r.Globals.All() {
			h.machine.Globals[gid] = val.Clone()
		}
		f := p.Frames[len(p.Frames)-1]
		for slot, val := range r.Locals.All() {
			if slot < len(f.Slots) {
				f.Slots[slot] = val.Clone()
			}
		}
		return false, nil

	case bytecode.BlockLoop:
		// Nested loop block: substitute its postlog and jump past the loop.
		r := h.peek()
		if r == nil || r.Kind != logging.RecPrelog || int(r.Block) != blockID {
			return false, fmt.Errorf("log divergence: expected loop prelog of block %d, found %v", blockID, r)
		}
		depth := 0
		for j := h.cursor; j < len(h.em.Book.Records); j++ {
			switch h.em.Book.Records[j].Kind {
			case logging.RecPrelog:
				depth++
			case logging.RecPostlog:
				depth--
				if depth == 0 {
					post := h.em.Book.Records[j]
					for gid, val := range post.Globals.All() {
						h.machine.Globals[gid] = val.Clone()
					}
					f := p.Frames[len(p.Frames)-1]
					for slot, val := range post.Locals.All() {
						if slot < len(f.Slots) {
							f.Slots[slot] = val.Clone()
						}
					}
					h.cursor = j + 1
					f.PC = meta.PostPC + 1
					// Record the substitution in the trace so the dynamic
					// graph shows a sub-graph node for the skipped loop.
					p.Tbuf.Append(trace.Event{
						Kind: trace.EvCallSkipped, Stmt: meta.LoopStmt,
						FuncIdx: -1 - blockID,
					})
					for slot, val := range post.Locals.All() {
						p.Tbuf.Append(trace.Event{
							Kind: trace.EvWrite, Stmt: meta.LoopStmt,
							Var: slot, Idx: -1, Value: val.Int,
						})
					}
					fn := h.em.Prog.Funcs[meta.FuncIdx]
					for gid, val := range post.Globals.All() {
						if !val.IsArray() {
							p.Tbuf.Append(trace.Event{
								Kind: trace.EvWrite, Stmt: meta.LoopStmt,
								Var: fn.NumSlots + gid, Idx: -1, Value: val.Int,
							})
						}
					}
					return true, nil
				}
			}
		}
		// Halted inside the loop: re-execute it. Consume the prelog.
		h.next()
		return false, nil
	}
	return false, nil
}

func (h *hooks) OnPostlog(p *vm.Proc, blockID int, hasRet bool) (bool, error) {
	if blockID == h.root && h.reexecDepth == 0 {
		r := h.next()
		if r == nil {
			// The original execution never completed this interval; replay
			// running past it means the replay diverged.
			return false, fmt.Errorf("log divergence: replay reached postlog of block %d past the log's end", blockID)
		}
		if r.Kind != logging.RecPostlog || int(r.Block) != blockID {
			return false, fmt.Errorf("log divergence: expected postlog of block %d, found %s", blockID, r)
		}
		h.sawRootPostlog = true
		return true, nil
	}
	// Only blocks whose postlog was missing from the log are ever
	// re-executed (OnCall/OnPrelog fall back exactly then), so replay
	// reaching such a block's postlog means it diverged from the original.
	return false, fmt.Errorf("log divergence: unexpected postlog of block %d during replay", blockID)
}

// EmulateFresh re-executes the interval at prelogIdx with *no* postlog
// substitution and *no* state re-imposition: nested callees re-run, shared
// prelogs are ignored, and only received message values are replayed from
// the log. This is the §5.7 what-if mode — changes to the prelog propagate
// through the whole interval instead of being overwritten by logged values.
//
// pre, when non-nil, is the prelog the replay starts from in place of the
// book's record at prelogIdx: a what-if passes a copy with its overrides
// applied. The book is never modified; the replay reads it only after
// prelogIdx, to find logged recv values.
//
// The replay runs untraced on a pooled replay context, so the Result
// carries the Outcome alone (Trace nil, RecordsConsumed 0) and a runaway
// override costs instructions, not memory, until vm.ErrBudget stops it.
// Untraced, the VM dispatches generically, so these replays stay out of
// the pool's debug.emu.dispatch.* split. Under Generic it runs the oracle
// instead: a fresh VM that records the full trace.
func (e *Emulator) EmulateFresh(prelogIdx int, pre *logging.Record) (*Result, error) {
	if prelogIdx < 0 || prelogIdx >= len(e.Book.Records) {
		return nil, fmt.Errorf("emulation: prelog index %d out of range", prelogIdx)
	}
	rec := e.Book.Records[prelogIdx]
	if rec.Kind != logging.RecPrelog {
		return nil, fmt.Errorf("emulation: record %d is %s, not a prelog", prelogIdx, rec.Kind)
	}
	if pre == nil {
		pre = rec
	}
	e.runs.Add(1)
	if e.Generic {
		return e.emulateFreshGeneric(prelogIdx, pre), nil
	}
	ctx := e.pool.get()
	ctx.fh = freshHooks{em: e, cursor: prelogIdx + 1, root: int(pre.Block)}
	proc := ctx.start(e.Prog, pre, &ctx.fh, nil)
	runErr := ctx.machine.RunEmu(proc)
	res := &Result{Outcome: Outcome{
		Globals:   ctx.machine.Snapshot(),
		Completed: ctx.fh.sawRootPostlog,
		Err:       runErr,
		Steps:     ctx.machine.Steps,
	}}
	e.pool.put(ctx)
	return res, nil
}

// emulateFreshGeneric is the original EmulateFresh body, kept as the
// oracle: a fresh VM per call, recording the full trace.
func (e *Emulator) emulateFreshGeneric(prelogIdx int, pre *logging.Record) *Result {
	machine := vm.New(e.Prog, vm.Options{Mode: vm.ModeEmulate})
	h := &freshHooks{em: e, cursor: prelogIdx + 1, root: int(pre.Block)}
	machine.SetHooks(h)
	proc := startFresh(machine, pre)
	runErr := machine.RunEmu(proc)
	return &Result{
		Outcome: Outcome{
			Globals:   machine.Snapshot(),
			Completed: h.sawRootPostlog,
			Err:       runErr,
			Steps:     machine.Steps,
		},
		Trace: proc.Tbuf,
	}
}

// freshHooks implement the what-if replay: re-execute everything, replaying
// only message values (scanned forward, tolerant of control-flow changes).
type freshHooks struct {
	em             *Emulator
	cursor         int
	root           int
	depth          int // nesting of re-executed blocks of the root's kind
	sawRootPostlog bool
}

func (h *freshHooks) OnSync(p *vm.Proc, op logging.SyncOp, obj int) (int64, error) {
	if op != logging.OpRecv {
		return 0, nil
	}
	// Scan forward for the next recv on this channel; the what-if run may
	// have skipped or added other operations.
	for j := h.cursor; j < len(h.em.Book.Records); j++ {
		r := h.em.Book.Records[j]
		if r.Kind == logging.RecSync && r.Op == logging.OpRecv && r.Obj == obj {
			h.cursor = j + 1
			return r.Value, nil
		}
	}
	return 0, fmt.Errorf("what-if: no logged recv value remains for channel %d", obj)
}

func (h *freshHooks) OnShPrelog(p *vm.Proc, unit bytecode.UnitLog) error { return nil }

func (h *freshHooks) OnCall(p *vm.Proc, callee *bytecode.Func, args []int64) (bool, int64, bool, error) {
	return false, 0, false, nil // always re-execute
}

func (h *freshHooks) OnPrelog(p *vm.Proc, blockID int) (bool, error) {
	if blockID != h.root {
		return false, nil
	}
	h.depth++ // recursive re-entry of the root block
	return false, nil
}

func (h *freshHooks) OnPostlog(p *vm.Proc, blockID int, hasRet bool) (bool, error) {
	if blockID == h.root {
		if h.depth > 0 {
			h.depth--
			return false, nil
		}
		h.sawRootPostlog = true
		return true, nil
	}
	return false, nil
}

// Package eblock partitions an MPL program into emulation blocks (§5.1,
// §5.4): the units of incremental tracing. Each e-block starts with code to
// generate a prelog (the variables it may read) and ends with code to
// generate a postlog (the variables it may have written), and is the unit
// the emulation package re-executes during the debugging phase.
//
// Following §5.4:
//   - every subroutine is a natural e-block;
//   - small leaf subroutines below a threshold are *inlined*: they get no
//     e-block of their own, and their direct ancestors inherit their USED
//     and DEFINED sets and perform the logging for them;
//   - loops whose bodies exceed a threshold become nested e-blocks, so the
//     debugging phase can skip re-executing a long loop (substituting its
//     postlog) unless the user asks for its details.
package eblock

import (
	"fmt"
	"sort"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/cfg"
	"ppd/internal/dataflow"
	"ppd/internal/pdg"
	"ppd/internal/sem"
)

// Kind distinguishes e-block flavors.
type Kind int

// E-block kinds.
const (
	FuncBlock Kind = iota
	LoopBlock
)

func (k Kind) String() string {
	if k == FuncBlock {
		return "func"
	}
	return "loop"
}

// ID identifies an e-block program-wide.
type ID int

// EBlock is one emulation block.
type EBlock struct {
	ID   ID
	Kind Kind
	Fn   *sem.FuncInfo

	// Loop is the while/for statement for LoopBlock kind; nil otherwise.
	Loop ast.Stmt

	// Used/Defined are over the enclosing function's variable space
	// (local slots then globals). For FuncBlocks the local part of Used is
	// the parameters; for LoopBlocks it is the locals the loop body reads.
	Used    *bitset.Set
	Defined *bitset.Set

	// UsedGlobals/DefinedGlobals are the same facts projected to GlobalIDs
	// (what the prelog/postlog records for shared state).
	UsedGlobals    *bitset.Set
	DefinedGlobals *bitset.Set
}

// Config tunes e-block construction. The zero value is the paper's default
// posture: subroutines are e-blocks, nothing is inlined, loops are not
// split out.
type Config struct {
	// LeafInlineThreshold: leaf functions with at most this many statements
	// and no synchronization are inlined into their callers (0 disables).
	LeafInlineThreshold int

	// LoopBlockMinStmts: loops whose bodies contain at least this many
	// statements become nested e-blocks (0 disables).
	LoopBlockMinStmts int
}

// DefaultConfig matches the paper's practical recommendation: inline tiny
// leaves, give big loops their own e-blocks.
func DefaultConfig() Config {
	return Config{LeafInlineThreshold: 8, LoopBlockMinStmts: 8}
}

// Plan is the complete e-block partition of a program.
type Plan struct {
	Config Config
	PDG    *pdg.Program

	Blocks []*EBlock

	// ByFunc maps function name to its e-block; inlined functions are
	// absent.
	ByFunc map[string]*EBlock

	// ByLoop maps a loop statement's ID to its e-block.
	ByLoop map[ast.StmtID]*EBlock

	// Inlined marks functions folded into their callers.
	Inlined map[string]bool
}

// Build computes the partition.
func Build(p *pdg.Program, cfg Config) *Plan {
	plan := &Plan{
		Config:  cfg,
		PDG:     p,
		ByFunc:  make(map[string]*EBlock),
		ByLoop:  make(map[ast.StmtID]*EBlock),
		Inlined: make(map[string]bool),
	}

	// Decide inlining. A function is inlined when it is small, has no
	// synchronization, is not a process entry point (spawn targets must
	// log: each process needs at least its entry e-block), is not main,
	// and every function it calls is itself inlined — so inlining
	// propagates up chains of small helpers (a fixpoint generalization of
	// §5.4's leaf rule; the direct ancestors inherit the USED/DEFINED sets
	// either way).
	spawned := p.Inter.SpawnTargets()
	if cfg.LeafInlineThreshold > 0 {
		// effSize is a function's own statement count plus the effective
		// sizes of its inlined callees — inlining a helper makes its caller
		// effectively bigger, which keeps whole programs from folding into
		// main under a generous threshold.
		effSize := make(map[string]int)
		for _, fn := range p.Info.FuncList {
			effSize[fn.Name()] = p.Inter.Summaries[fn.Name()].NumStmts
		}
		for changed := true; changed; {
			changed = false
			for _, fn := range p.Info.FuncList {
				name := fn.Name()
				if plan.Inlined[name] {
					continue
				}
				s := p.Inter.Summaries[name]
				if s.UsesSync || spawned[name] || name == "main" {
					continue
				}
				size := s.NumStmts
				ok := true
				for _, callee := range s.Callees {
					if s.SpawnedOnly[callee] {
						continue
					}
					if callee == name || !plan.Inlined[callee] {
						ok = false
						break
					}
					size += effSize[callee]
				}
				if ok && size <= cfg.LeafInlineThreshold {
					plan.Inlined[name] = true
					effSize[name] = size
					changed = true
				}
			}
		}
	}

	for _, fn := range p.Info.FuncList {
		if plan.Inlined[fn.Name()] {
			continue
		}
		plan.addFuncBlock(fn)
	}
	// Loop blocks, after all function blocks exist.
	if cfg.LoopBlockMinStmts > 0 {
		for _, fn := range p.Info.FuncList {
			if plan.Inlined[fn.Name()] {
				continue
			}
			plan.addLoopBlocks(fn)
		}
	}
	return plan
}

func (plan *Plan) newBlock(kind Kind, fn *sem.FuncInfo) *EBlock {
	b := &EBlock{ID: ID(len(plan.Blocks)), Kind: kind, Fn: fn}
	plan.Blocks = append(plan.Blocks, b)
	return b
}

func (plan *Plan) addFuncBlock(fn *sem.FuncInfo) {
	p := plan.PDG
	f := p.Funcs[fn.Name()]
	space := f.Space
	b := plan.newBlock(FuncBlock, fn)
	b.Used = space.NewSet()
	b.Defined = space.NewSet()

	// Parameters are read at entry (they are the %n bindings the prelog
	// must capture for re-execution).
	for _, prm := range fn.Params {
		b.Used.Add(space.Index(prm))
	}

	// Globals possibly read by the function's own code plus any *inlined*
	// callee (functions with their own e-blocks log for themselves; §5.2's
	// postlog substitution covers them during emulation).
	used := bitset.New(p.Info.NumGlobals())
	sum := p.Inter.Summaries[fn.Name()]
	used.UnionWith(sum.DirectUsed)
	plan.addInlinedEffects(fn.Name(), used, nil, make(map[string]bool))

	// Globals possibly written during the whole interval, including nested
	// e-blocks: the postlog restores state across the interval (§5.7), so
	// it must cover transitive writes.
	defined := sum.Defined.Clone()

	space.InjectGlobals(b.Used, used)
	space.InjectGlobals(b.Defined, defined)
	b.UsedGlobals = used
	b.DefinedGlobals = defined
	plan.ByFunc[fn.Name()] = b
}

// addInlinedEffects accumulates the USED (and optionally DEFINED) global
// sets of inlined callees, transitively through chains of inlined leaves.
func (plan *Plan) addInlinedEffects(fn string, used, defined *bitset.Set, seen map[string]bool) {
	if seen[fn] {
		return
	}
	seen[fn] = true
	s := plan.PDG.Inter.Summaries[fn]
	for _, callee := range s.Callees {
		if s.SpawnedOnly[callee] || !plan.Inlined[callee] {
			continue
		}
		cs := plan.PDG.Inter.Summaries[callee]
		if used != nil {
			used.UnionWith(cs.DirectUsed)
		}
		if defined != nil {
			defined.UnionWith(cs.DirectDefined)
		}
		plan.addInlinedEffects(callee, used, defined, seen)
	}
}

func (plan *Plan) addLoopBlocks(fn *sem.FuncInfo) {
	f := plan.PDG.Funcs[fn.Name()]
	var live *dataflow.Liveness // computed for the first loop block
	var body []ast.Stmt
	var visit func(ast.Stmt)
	visit = func(s ast.Stmt) {
		var loopBody *ast.BlockStmt
		switch s := s.(type) {
		case *ast.BlockStmt:
			for _, st := range s.List {
				visit(st)
			}
			return
		case *ast.IfStmt:
			visit(s.Then)
			visit(s.Else)
			return
		case *ast.WhileStmt:
			loopBody = s.Body
		case *ast.ForStmt:
			loopBody = s.Body
		default:
			return
		}
		var syncy bool
		body, syncy = plan.loopBody(body[:0], loopBody)
		// A loop containing synchronization must not be an e-block: its
		// iterations interleave with other processes, so skipping it with a
		// postlog would skip sync events the parallel graph needs. Nor is
		// a small loop worth one. An inner loop might still qualify.
		if syncy || len(body) < plan.Config.LoopBlockMinStmts {
			visit(loopBody)
			return
		}
		if live == nil {
			live = dataflow.ComputeLiveness(f.Space, f.CFG, f.UseDefs)
		}
		// Loops nested inside this one get no blocks: the outer block
		// already skips them.
		plan.addLoopBlock(f, s, body, live)
	}
	visit(fn.Decl.Body)
}

// loopBody appends the statements of a loop body to buf, in source order
// and without block wrappers, and reports whether any of them
// synchronizes, directly or through a call.
func (plan *Plan) loopBody(buf []ast.Stmt, body *ast.BlockStmt) ([]ast.Stmt, bool) {
	syncy := false
	ast.Inspect(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.BlockStmt:
			return true
		case *ast.SemStmt, *ast.SendStmt, *ast.SpawnStmt, *ast.RecvExpr:
			syncy = true
		case *ast.CallExpr:
			if cs, ok := plan.PDG.Inter.Summaries[x.Fun.Name]; ok && cs.UsesSync {
				syncy = true
			}
		}
		if s, ok := x.(ast.Stmt); ok {
			buf = append(buf, s)
		}
		return true
	})
	return buf, syncy
}

// addLoopBlock makes the e-block of loopStmt, whose body holds body.
func (plan *Plan) addLoopBlock(f *pdg.FuncPDG, loopStmt ast.Stmt, body []ast.Stmt, live *dataflow.Liveness) {
	space := f.Space
	b := plan.newBlock(LoopBlock, f.Fn)
	b.Loop = loopStmt
	b.Used = space.NewSet()
	b.Defined = space.NewSet()

	// Union the widened UseDef of every statement in the loop, including
	// the loop predicate itself and (for for-loops) the post statement.
	// The init statement runs before the loop head, outside the block.
	collect := func(id ast.StmtID) {
		if ud, ok := f.UseDefs[id]; ok {
			b.Used.UnionWith(ud.Use)
			b.Defined.UnionWith(ud.Def)
		}
	}
	collect(loopStmt.ID())
	for _, s := range body {
		collect(s.ID())
	}
	if fs, ok := loopStmt.(*ast.ForStmt); ok && fs.Post != nil {
		collect(fs.Post.ID())
	}

	// Trim dead locals from the postlog set: substitution only has to
	// restore values the continuation can observe (live-variable analysis;
	// the paper's §5.4 log-size concern).
	trimDeadLocals(f, space, live, loopStmt, b.Defined)

	b.UsedGlobals = space.GlobalsOnly(b.Used)
	b.DefinedGlobals = space.GlobalsOnly(b.Defined)
	plan.ByLoop[loopStmt.ID()] = b
}

// trimDeadLocals removes from the loop block's defined set every local that
// is not live at any of the loop's exit targets.
func trimDeadLocals(f *pdg.FuncPDG, space *dataflow.Space, live *dataflow.Liveness, loopStmt ast.Stmt, defined *bitset.Set) {
	head := f.CFG.NodeFor(loopStmt.ID())
	if head < 0 {
		return
	}
	inBody := map[cfg.NodeID]bool{head: true}
	for _, l := range f.CFG.Loops {
		if l.Head != head {
			continue
		}
		for _, n := range l.Body {
			inBody[n] = true
		}
	}
	liveAfter := space.NewSet()
	for n := range inBody {
		for _, succ := range f.CFG.Nodes[n].Succs {
			if !inBody[succ] {
				liveAfter.UnionWith(live.LiveBefore(succ))
			}
		}
	}
	defined.ForEach(func(idx int) {
		if !space.IsGlobal(idx) && !liveAfter.Has(idx) {
			defined.Remove(idx)
		}
	})
}

// String summarizes the plan for diagnostics and the program database dump.
func (plan *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "e-block plan (%d blocks):\n", len(plan.Blocks))
	for _, blk := range plan.Blocks {
		switch blk.Kind {
		case FuncBlock:
			fmt.Fprintf(&b, "  #%d func %s used=%s defined=%s\n",
				blk.ID, blk.Fn.Name(), blk.UsedGlobals, blk.DefinedGlobals)
		case LoopBlock:
			fmt.Fprintf(&b, "  #%d loop s%d in %s used=%s defined=%s\n",
				blk.ID, blk.Loop.ID(), blk.Fn.Name(), blk.UsedGlobals, blk.DefinedGlobals)
		}
	}
	var inl []string
	for name := range plan.Inlined {
		inl = append(inl, name)
	}
	sort.Strings(inl)
	if len(inl) > 0 {
		fmt.Fprintf(&b, "  inlined: %s\n", strings.Join(inl, ", "))
	}
	return b.String()
}

// Package interproc computes the call graph and interprocedural summaries
// of MPL programs: for every function, the sets of globals it may read
// (USED) and may write (DEFINED), transitively through calls.
//
// These are the paper's §5.1 USED/DEFINED sets "obtained by applying data
// flow analysis" and the §2 "inter-procedural analysis commonly used in
// optimizing compilers" (Cooper/Kennedy-style MOD/REF). They size the
// prelogs and postlogs, and they let e-block construction inline the
// effects of small leaf subroutines into their callers (§5.4).
package interproc

import (
	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/dataflow"
	"ppd/internal/sem"
)

// FuncSummary holds the interprocedural facts for one function.
type FuncSummary struct {
	Fn *sem.FuncInfo

	// DirectUsed/DirectDefined cover only this function's own statements
	// (no callees), over GlobalIDs.
	DirectUsed    *bitset.Set
	DirectDefined *bitset.Set

	// Used/Defined are the transitive closures over the call graph.
	Used    *bitset.Set
	Defined *bitset.Set

	// Callees lists functions called (statically) from this function,
	// deduplicated, in first-call order. Spawned functions are included:
	// a spawn transfers control (in a new process), and the paper's
	// program database tracks it the same way.
	Callees []string

	// SpawnedOnly marks callees reached only via spawn, whose effects run
	// in a different process and therefore do NOT contribute to this
	// function's USED/DEFINED sets.
	SpawnedOnly map[string]bool

	// IsLeaf reports whether the function calls nothing (spawns allowed).
	IsLeaf bool

	// NumStmts is the number of executable statements, used by e-block
	// sizing heuristics.
	NumStmts int

	// UsesSync reports whether the function contains any synchronization
	// operation (P/V, send/recv, spawn).
	UsesSync bool
}

// Result is the full interprocedural analysis output.
type Result struct {
	Info      *sem.Info
	Summaries map[string]*FuncSummary

	// UseDefs holds, for each function, the direct per-statement UseDef
	// facts (before call-effect widening), so later phases don't recompute.
	UseDefs map[string]map[ast.StmtID]*dataflow.UseDef

	// Spaces holds each function's variable space.
	Spaces map[string]*dataflow.Space

	spawnTargets map[string]bool
}

// Effects returns a dataflow.CallEffects callback backed by the summaries.
func (r *Result) Effects() dataflow.CallEffects {
	return func(callee string) (*bitset.Set, *bitset.Set) {
		s, ok := r.Summaries[callee]
		if !ok {
			return nil, nil
		}
		return s.Used, s.Defined
	}
}

// directFacts computes pass 1 (local dataflow, call-graph edges, sync
// markers) for one function and records its space, use-defs and summary.
// It reads only the AST and the checker's symbol tables, never another
// function's facts, and walks the body once.
func (r *Result) directFacts(fn *sem.FuncInfo, sets *bitset.Slab) {
	s := &FuncSummary{Fn: fn}

	// Callees in first-call order, each with whether some call of it is
	// plain (not a spawn). Inspect visits a SpawnStmt's own CallExpr right
	// after the statement, so spawnCall marks the one call that is not
	// plain.
	var plain []bool
	var spawnCall *ast.CallExpr
	callee := func(name string, isPlain bool) {
		for i, c := range s.Callees {
			if c == name {
				plain[i] = plain[i] || isPlain
				return
			}
		}
		s.Callees = append(s.Callees, name)
		plain = append(plain, isPlain)
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt:
		case ast.Stmt:
			s.NumStmts++
			switch st := n.(type) {
			case *ast.SemStmt, *ast.SendStmt:
				s.UsesSync = true
			case *ast.SpawnStmt:
				s.UsesSync = true
				spawnCall = st.Call
				callee(st.Call.Fun.Name, false)
				r.spawnTargets[st.Call.Fun.Name] = true
			}
		case *ast.RecvExpr:
			s.UsesSync = true
		case *ast.CallExpr:
			callee(n.Fun.Name, n != spawnCall)
		}
		return true
	})
	s.IsLeaf = true
	for i, c := range s.Callees {
		if plain[i] {
			s.IsLeaf = false
		} else {
			if s.SpawnedOnly == nil {
				s.SpawnedOnly = make(map[string]bool)
			}
			s.SpawnedOnly[c] = true
		}
	}

	space := dataflow.NewSpace(r.Info, fn)
	uds := dataflow.ComputeUseDef(space, s.NumStmts)
	used, defined := space.NewSet(), space.NewSet()
	for _, ud := range uds {
		used.UnionWith(ud.Use)
		defined.UnionWith(ud.Def)
	}
	s.DirectUsed, s.DirectDefined = sets.New(), sets.New()
	space.AddGlobals(s.DirectUsed, used, nil)
	space.AddGlobals(s.DirectDefined, defined, nil)
	r.Spaces[fn.Name()] = space
	r.UseDefs[fn.Name()] = uds
	r.Summaries[fn.Name()] = s
}

// Analyze computes summaries for every function with a fixpoint over the
// call graph (sound for recursion and mutual recursion).
func Analyze(info *sem.Info) *Result {
	n := len(info.FuncList)
	r := &Result{
		Info:         info,
		Summaries:    make(map[string]*FuncSummary, n),
		UseDefs:      make(map[string]map[ast.StmtID]*dataflow.UseDef, n),
		Spaces:       make(map[string]*dataflow.Space, n),
		spawnTargets: make(map[string]bool),
	}
	// Every summary set comes from one slab: four per function.
	sets := bitset.NewSlab(info.NumGlobals(), 4*n)

	// Pass 1: direct facts, one function at a time.
	for _, fn := range info.FuncList {
		r.directFacts(fn, sets)
	}

	// Pass 2: transitive closure (only through plain calls; spawned code
	// runs in another process).
	for _, s := range r.Summaries {
		s.Used = sets.Clone(s.DirectUsed)
		s.Defined = sets.Clone(s.DirectDefined)
	}
	changed := true
	for changed {
		changed = false
		for _, s := range r.Summaries {
			for _, callee := range s.Callees {
				if s.SpawnedOnly[callee] {
					continue
				}
				cs, ok := r.Summaries[callee]
				if !ok {
					continue
				}
				if s.Used.UnionWith(cs.Used) {
					changed = true
				}
				if s.Defined.UnionWith(cs.Defined) {
					changed = true
				}
			}
		}
	}

	// Pass 3: sync-through-calls (a function that calls a syncing function
	// synchronizes too).
	changed = true
	for changed {
		changed = false
		for _, s := range r.Summaries {
			if s.UsesSync {
				continue
			}
			for _, callee := range s.Callees {
				if s.SpawnedOnly[callee] {
					continue
				}
				if cs, ok := r.Summaries[callee]; ok && cs.UsesSync {
					s.UsesSync = true
					changed = true
					break
				}
			}
		}
	}
	return r
}

// SpawnTargets returns the set of functions that are ever spawned anywhere
// in the program; each is a process entry point. The map is shared by
// every caller, which must not modify it.
func (r *Result) SpawnTargets() map[string]bool { return r.spawnTargets }

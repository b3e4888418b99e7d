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
// function's facts.
func (r *Result) directFacts(fn *sem.FuncInfo) {
	info := r.Info
	nGlobals := info.NumGlobals()
	space := dataflow.NewSpace(info, fn)
	uds := dataflow.ComputeUseDef(space)

	s := &FuncSummary{
		Fn:            fn,
		DirectUsed:    bitset.New(nGlobals),
		DirectDefined: bitset.New(nGlobals),
		SpawnedOnly:   make(map[string]bool),
	}
	for _, ud := range uds {
		s.DirectUsed.UnionWith(space.GlobalsOnly(ud.Use))
		s.DirectDefined.UnionWith(space.GlobalsOnly(ud.Def))
	}

	seen := make(map[string]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case ast.Stmt:
			if _, isBlock := n.(*ast.BlockStmt); !isBlock {
				s.NumStmts++
			}
			switch st := n.(type) {
			case *ast.SemStmt, *ast.SendStmt:
				s.UsesSync = true
			case *ast.SpawnStmt:
				s.UsesSync = true
				name := st.Call.Fun.Name
				if !seen[name] {
					seen[name] = true
					s.Callees = append(s.Callees, name)
				}
			}
		case *ast.RecvExpr:
			s.UsesSync = true
		case *ast.CallExpr:
			name := n.Fun.Name
			if !seen[name] {
				seen[name] = true
				s.Callees = append(s.Callees, name)
			}
		}
		return true
	})
	// Spawn targets inside CallExpr of SpawnStmt were visited as
	// CallExpr too; distinguish: spawned-only = in Callees but never a
	// plain call. SpawnStmt.Call is itself a *ast.CallExpr node, so we
	// must subtract those occurrences.
	spawnCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if sp, ok := n.(*ast.SpawnStmt); ok {
			spawnCalls[sp.Call] = true
		}
		return true
	})
	plain := make(map[string]bool)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if ce, ok := n.(*ast.CallExpr); ok && !spawnCalls[ce] {
			plain[ce.Fun.Name] = true
		}
		return true
	})
	for _, callee := range s.Callees {
		if !plain[callee] {
			s.SpawnedOnly[callee] = true
		}
	}
	s.IsLeaf = len(plain) == 0
	r.Spaces[fn.Name()] = space
	r.UseDefs[fn.Name()] = uds
	r.Summaries[fn.Name()] = s
}

// Analyze computes summaries for every function with a fixpoint over the
// call graph (sound for recursion and mutual recursion).
func Analyze(info *sem.Info) *Result {
	r := &Result{
		Info:      info,
		Summaries: make(map[string]*FuncSummary),
		UseDefs:   make(map[string]map[ast.StmtID]*dataflow.UseDef),
		Spaces:    make(map[string]*dataflow.Space),
	}

	// Pass 1: direct facts, one function at a time.
	for _, fn := range info.FuncList {
		r.directFacts(fn)
	}

	// Pass 2: transitive closure (only through plain calls; spawned code
	// runs in another process).
	for _, s := range r.Summaries {
		s.Used = s.DirectUsed.Clone()
		s.Defined = s.DirectDefined.Clone()
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
// in the program; each is a process entry point.
func (r *Result) SpawnTargets() map[string]bool {
	out := make(map[string]bool)
	for _, fn := range r.Info.FuncList {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if sp, ok := n.(*ast.SpawnStmt); ok {
				out[sp.Call.Fun.Name] = true
			}
			return true
		})
	}
	return out
}

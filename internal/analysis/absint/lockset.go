package absint

// The lockset domain: for every program point, which mutex-like
// semaphores is the executing process guaranteed to hold? "Must-held" is
// an intersection (decreasing) dataflow over the CFG, interprocedural via
// per-function entry contexts and call-effect kills.
//
// Soundness of the pruning consumer rests on three checks, all here:
//
//  1. Candidate semaphores start at count exactly 1 (a signal semaphore
//     starting at 0 orders events, it does not exclude; one starting at
//     k>1 admits k holders).
//  2. V-discipline: every V(m) site in root-reachable code must itself
//     hold m. Then the count can never exceed 1, so at most one process
//     is inside a P(m)…V(m) region at a time, and each V→P edge the VM
//     logs orders one critical section wholly before the next.
//  3. A statement containing a call is only "holding m" if no function
//     in the callee's plain-call closure can V(m) (mayV kills) — the V
//     could execute before the access within the same statement.
//
// A shared variable whose every access in reachable code sits under a
// common such semaphore therefore cannot be accessed concurrently: its
// race-detector buckets are provably empty and the conflict mask may
// drop it without changing the reported race set.

import (
	"maps"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/cfg"
	"ppd/internal/sem"
	"ppd/internal/token"
)

// locksets computes the must-held analysis and fills Guarded and
// LocksetStmts on e.facts.
func (e *engine) locksets() {
	info := e.info
	ng := info.NumGlobals()

	// 1. Candidates: semaphores initialized to exactly 1.
	cand := bitset.New(ng)
	for gid, sym := range info.Globals {
		if sym.Kind != sem.SymSem {
			continue
		}
		if d := e.globalDecl(sym.Name); d != nil && d.Init != nil {
			if k, ok := constEval(d.Init); ok && k == 1 {
				cand.Add(gid)
			}
		}
	}
	if cand.IsEmpty() {
		return
	}

	// 2. mayV: candidates a function's plain-call closure can release.
	mayV := make(map[string]*bitset.Set, len(info.FuncList))
	for _, fi := range info.FuncList {
		direct := bitset.New(ng)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if s, ok := n.(*ast.SemStmt); ok && s.Op == token.RELEASE {
				if sym := info.Uses[s.Sem]; sym != nil && sym.GlobalID >= 0 && cand.Has(sym.GlobalID) {
					direct.Add(sym.GlobalID)
				}
			}
			return true
		})
		mayV[fi.Name()] = direct
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range info.FuncList {
			sum := e.p.Inter.Summaries[fi.Name()]
			if sum == nil {
				continue
			}
			for _, c := range sum.Callees {
				if sum.SpawnedOnly[c] {
					continue // spawned code runs as its own process
				}
				if cv := mayV[c]; cv != nil && mayV[fi.Name()].UnionWith(cv) {
					changed = true
				}
			}
		}
	}

	// callKills: candidates any callee of the statement may release.
	callKills := func(fn string, id ast.StmtID, into *bitset.Set) {
		ud := e.p.Inter.UseDefs[fn][id]
		if ud == nil {
			return
		}
		for _, c := range ud.Calls {
			if cv := mayV[c]; cv != nil {
				into.DifferenceWith(cv)
			}
		}
	}

	// 3. Entry contexts: process roots start holding nothing; everything
	// else starts at the universe and is intersected down from its call
	// sites (a decreasing fixpoint, so initialization must be optimistic).
	roots := maps.Clone(e.p.Inter.SpawnTargets())
	if info.Main != nil {
		roots[info.Main.Name()] = true
	}
	entry := make(map[string]*bitset.Set, len(info.FuncList))
	for _, fi := range info.FuncList {
		if roots[fi.Name()] {
			entry[fi.Name()] = bitset.New(ng)
		} else {
			entry[fi.Name()] = cand.Clone()
		}
	}

	// flow solves one function's intersection dataflow under its current
	// entry context, returning the in-state (pre-statement) of each node.
	flow := func(fn string, fp funcGraph) []*bitset.Set {
		g := fp.g
		in := make([]*bitset.Set, len(g.Nodes))
		for i := range in {
			in[i] = cand.Clone() // optimistic universe
		}
		in[cfg.EntryNode] = entry[fn].Clone()
		out := func(p cfg.NodeID) *bitset.Set {
			s := in[p].Clone()
			n := g.Nodes[p]
			if n.Stmt == nil {
				return s
			}
			callKills(fn, n.Stmt.ID(), s)
			if ss, ok := n.Stmt.(*ast.SemStmt); ok {
				if sym := e.info.Uses[ss.Sem]; sym != nil && sym.GlobalID >= 0 && cand.Has(sym.GlobalID) {
					if ss.Op == token.ACQUIRE {
						s.Add(sym.GlobalID)
					} else {
						s.Remove(sym.GlobalID)
					}
				}
			}
			return s
		}
		for changed := true; changed; {
			changed = false
			for id := range g.Nodes {
				if cfg.NodeID(id) == cfg.EntryNode {
					continue
				}
				n := g.Nodes[id]
				if len(n.Preds) == 0 {
					continue // unreachable: stays at universe (vacuous)
				}
				next := cand.Clone()
				for _, p := range n.Preds {
					next.IntersectWith(out(p))
				}
				if !next.Equal(in[id]) {
					in[id] = next
					changed = true
				}
			}
		}
		return in
	}

	funcs := make([]funcGraph, 0, len(info.FuncList))
	for _, fi := range info.FuncList {
		if fp := e.p.Funcs[fi.Name()]; fp != nil {
			funcs = append(funcs, funcGraph{name: fi.Name(), g: fp.CFG, fp: fi})
		}
	}

	ins := make(map[string][]*bitset.Set, len(funcs))
	for changed := true; changed; {
		changed = false
		for _, fg := range funcs {
			in := flow(fg.name, fg)
			ins[fg.name] = in
			for id, n := range fg.g.Nodes {
				if n.Stmt == nil {
					continue
				}
				ud := e.p.Inter.UseDefs[fg.name][n.Stmt.ID()]
				if ud == nil || len(ud.Calls) == 0 {
					continue
				}
				ctx := in[id].Clone()
				callKills(fg.name, n.Stmt.ID(), ctx)
				for _, c := range ud.Calls {
					if ec := entry[c]; ec != nil {
						before := ec.Clone()
						ec.IntersectWith(ctx)
						if !ec.Equal(before) {
							changed = true
						}
					}
				}
			}
		}
	}

	// Root-reachable functions: only code that can execute matters for
	// discipline violations and guarded-access certificates.
	reach := make(map[string]bool)
	var mark func(string)
	mark = func(fn string) {
		if reach[fn] {
			return
		}
		reach[fn] = true
		if sum := e.p.Inter.Summaries[fn]; sum != nil {
			for _, c := range sum.Callees {
				mark(c)
			}
		}
	}
	for r := range roots {
		mark(r)
	}

	// 4. Lock-like filter: drop candidates whose V-discipline is violated
	// anywhere reachable.
	lockLike := cand.Clone()
	for _, fg := range funcs {
		if !reach[fg.name] {
			continue
		}
		in := ins[fg.name]
		for id, n := range fg.g.Nodes {
			ss, ok := n.Stmt.(*ast.SemStmt)
			if !ok || ss.Op != token.RELEASE {
				continue
			}
			sym := e.info.Uses[ss.Sem]
			if sym == nil || sym.GlobalID < 0 || !cand.Has(sym.GlobalID) {
				continue
			}
			if !in[id].Has(sym.GlobalID) {
				lockLike.Remove(sym.GlobalID)
			}
		}
	}

	// heldAt: must-held lockset in effect for the statement's own data
	// accesses (call effects subtracted, filtered to lock-like sems).
	heldAt := func(fn string, id cfg.NodeID, sid ast.StmtID) *bitset.Set {
		h := ins[fn][id].Clone()
		callKills(fn, sid, h)
		h.IntersectWith(lockLike)
		return h
	}

	// 5. Counter + guarded-variable certificates.
	for _, fg := range funcs {
		if !reach[fg.name] {
			continue
		}
		for id, n := range fg.g.Nodes {
			if n.Stmt == nil {
				continue
			}
			if !heldAt(fg.name, cfg.NodeID(id), n.Stmt.ID()).IsEmpty() {
				e.facts.LocksetStmts++
			}
		}
	}
	for gid, sym := range info.Globals {
		if sym.Kind != sem.SymGlobal || !e.p.SharedMask.Has(gid) {
			continue
		}
		held := lockLike.Clone()
		accesses := 0
		for _, fg := range funcs {
			if !reach[fg.name] {
				continue
			}
			gidx := e.p.Funcs[fg.name].Space.GlobalIndex(gid)
			for id, n := range fg.g.Nodes {
				if n.Stmt == nil {
					continue
				}
				ud := e.p.Funcs[fg.name].UseDefs[n.Stmt.ID()]
				if ud == nil || (!ud.Use.Has(gidx) && !ud.Def.Has(gidx)) {
					continue
				}
				accesses++
				held.IntersectWith(heldAt(fg.name, cfg.NodeID(id), n.Stmt.ID()))
				if held.IsEmpty() {
					break
				}
			}
			if held.IsEmpty() {
				break
			}
		}
		if accesses > 0 && !held.IsEmpty() {
			e.facts.Guarded = append(e.facts.Guarded, GuardedVar{Gid: gid, Sem: held.Elems()[0]})
		}
	}
}

type funcGraph struct {
	name string
	g    *cfg.Graph
	fp   *sem.FuncInfo
}

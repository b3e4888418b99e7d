// Package pdg builds the paper's static graphs (§4.1, §5.5):
//
//   - the static program dependence graph per function — control-dependence
//     edges (Ferrante/Ottenstein/Warren via the CFG's postdominator tree)
//     plus data-dependence edges (def-use chains from reaching definitions,
//     widened with interprocedural call effects);
//   - the simplified static graph — the subset containing only ENTRY, EXIT,
//     branch predicates, synchronization operations, and subroutine calls,
//     connected by flow edges; and
//   - the synchronization units of Definition 5.1 — for each non-branching
//     node, the simplified-graph edges reachable without passing through
//     another non-branching node — together with each unit's statically
//     computed shared-variable read/write sets, which place and size the
//     extra shared prelogs of §5.5.
package pdg

import (
	"fmt"
	"sort"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/cfg"
	"ppd/internal/dataflow"
	"ppd/internal/interproc"
	"ppd/internal/sem"
)

// DataDep is one static data-dependence edge: the definition of Var at From
// may reach the use at To. From may be the ENTRY node (value flows in from
// the caller or from pre-existing global state).
type DataDep struct {
	From cfg.NodeID
	To   cfg.NodeID
	Var  int // space index
}

// SimpleNodeKind classifies nodes kept in the simplified static graph.
type SimpleNodeKind int

// Simplified-graph node kinds.
const (
	SimpleEntry SimpleNodeKind = iota
	SimpleExit
	SimpleBranch // if/while/for predicate — the only "branching" kind
	SimpleSync   // P, V, send, recv, spawn
	SimpleCall   // statement containing a subroutine call
)

func (k SimpleNodeKind) String() string {
	switch k {
	case SimpleEntry:
		return "ENTRY"
	case SimpleExit:
		return "EXIT"
	case SimpleBranch:
		return "branch"
	case SimpleSync:
		return "sync"
	case SimpleCall:
		return "call"
	}
	return "?"
}

// Branching reports whether the kind is a branching node. Everything else
// (ENTRY, EXIT, sync, call) is non-branching, per Fig 5.3.
func (k SimpleNodeKind) Branching() bool { return k == SimpleBranch }

// SimpleEdge is one flow edge of the simplified static graph. Interior
// lists the collapsed ordinary statements (CFG nodes) the edge traverses,
// in execution order.
type SimpleEdge struct {
	ID       int
	From, To cfg.NodeID
	Interior []cfg.NodeID

	// Reads/Writes are the shared variables (GlobalIDs) possibly read or
	// written while traversing this edge, including the target predicate's
	// reads when To is branching.
	Reads  *bitset.Set
	Writes *bitset.Set
}

// SyncUnit is Definition 5.1's synchronization unit: the simplified-graph
// edges reachable from Start without passing through another non-branching
// node, with the union of their shared read/write sets.
type SyncUnit struct {
	Start cfg.NodeID // a non-branching simplified node
	Edges []int      // edge IDs
	Reads *bitset.Set
	Write *bitset.Set

	// CrossReads restricts Reads to variables some *other* process may
	// write — the only values the §5.5 shared prelog must re-supply for
	// reproducible emulation. Reads a process's own re-execution reproduces
	// need no log entry.
	CrossReads *bitset.Set
}

// Simplified is the simplified static graph of one function.
type Simplified struct {
	Kinds map[cfg.NodeID]SimpleNodeKind // kept nodes only
	Edges []*SimpleEdge
	Out   map[cfg.NodeID][]int // outgoing edge IDs per kept node
	Units []*SyncUnit          // in Start order (entry first, then StmtID)
}

// FuncPDG bundles every static-analysis artifact of one function.
type FuncPDG struct {
	Fn       *sem.FuncInfo
	CFG      *cfg.Graph
	Space    *dataflow.Space
	UseDefs  map[ast.StmtID]*dataflow.UseDef // widened with call effects; shares the call-free statements' facts with Inter.UseDefs
	Reaching *dataflow.Reaching
	DataDeps []DataDep
	Simple   *Simplified
}

// Program is the static PDG of the whole program.
type Program struct {
	Info       *sem.Info
	Inter      *interproc.Result
	Funcs      map[string]*FuncPDG
	SharedMask *bitset.Set // GlobalIDs that are shared variables

	// WrittenByOthers maps each function to the globals that processes
	// other than the one executing it may write: the union of every spawn
	// target's DEFINED set (spawned code can run in many instances), plus
	// main's DEFINED set for functions reachable from a spawn target.
	WrittenByOthers map[string]*bitset.Set
}

// Build runs the whole static-analysis pipeline.
func Build(info *sem.Info) *Program {
	return BuildFromInter(interproc.Analyze(info), true)
}

// BuildFromInter builds the static PDG from a precomputed interprocedural
// result: per function, the CFG, reaching definitions, def-use chains,
// simplified graph and sync units. crossWriteFilter false disables the
// cross-write restriction of the shared prelogs (see SyncUnit.CrossReads),
// a literal reading of §5.5 — every shared read in a unit is logged — that
// exists only for the ablation experiment that quantifies what the
// refinement saves.
func BuildFromInter(inter *interproc.Result, crossWriteFilter bool) *Program {
	info := inter.Info
	p := &Program{
		Info:       info,
		Inter:      inter,
		Funcs:      make(map[string]*FuncPDG, len(info.FuncList)),
		SharedMask: bitset.New(info.NumGlobals()),
	}
	for _, id := range info.SharedIDs() {
		p.SharedMask.Add(id)
	}
	perFunc := bitset.NewSlab(info.NumGlobals(), len(info.FuncList))
	if crossWriteFilter {
		p.computeWrittenByOthers(perFunc)
	} else {
		p.WrittenByOthers = make(map[string]*bitset.Set, len(info.FuncList))
		for _, fn := range info.FuncList {
			p.WrittenByOthers[fn.Name()] = perFunc.Clone(p.SharedMask)
		}
	}
	for _, fn := range info.FuncList {
		p.Funcs[fn.Name()] = p.buildFunc(fn)
	}
	return p
}

// computeWrittenByOthers derives, per function, the shared globals some
// concurrently-running process may write (see Program.WrittenByOthers).
func (p *Program) computeWrittenByOthers(sets *bitset.Slab) {
	p.WrittenByOthers = make(map[string]*bitset.Set, len(p.Info.FuncList))
	targets := p.Inter.SpawnTargets()
	crossBase := bitset.New(p.Info.NumGlobals())
	for t := range targets {
		if s, ok := p.Inter.Summaries[t]; ok {
			crossBase.UnionWith(s.Defined)
		}
	}
	// Functions reachable from a spawn target through plain calls.
	reach := make(map[string]bool)
	var visit func(string)
	visit = func(fn string) {
		if reach[fn] {
			return
		}
		reach[fn] = true
		if s, ok := p.Inter.Summaries[fn]; ok {
			for _, callee := range s.Callees {
				if !s.SpawnedOnly[callee] {
					visit(callee)
				}
			}
		}
	}
	for t := range targets {
		visit(t)
	}
	var mainDefined *bitset.Set
	if m, ok := p.Inter.Summaries["main"]; ok {
		mainDefined = m.Defined
	}
	for _, fn := range p.Info.FuncList {
		w := sets.Clone(crossBase)
		if reach[fn.Name()] && mainDefined != nil {
			w.UnionWith(mainDefined)
		}
		w.IntersectWith(p.SharedMask)
		p.WrittenByOthers[fn.Name()] = w
	}
}

func (p *Program) buildFunc(fn *sem.FuncInfo) *FuncPDG {
	space := p.Inter.Spaces[fn.Name()]
	g := cfg.Build(fn, p.Inter.Summaries[fn.Name()].NumStmts)

	// Widen a private copy of the UseDefs with interprocedural effects.
	// Only a statement with calls widens, and callee effects never kill,
	// so the copy shares everything else with the direct facts.
	direct := p.Inter.UseDefs[fn.Name()]
	uds := make(map[ast.StmtID]*dataflow.UseDef, len(direct))
	nCalls := 0
	for _, ud := range direct {
		if len(ud.Calls) > 0 {
			nCalls++
		}
	}
	widened := make([]dataflow.UseDef, 0, nCalls)
	sets := bitset.NewSlab(space.Size(), 2*nCalls)
	for id, ud := range direct {
		if len(ud.Calls) == 0 {
			uds[id] = ud
			continue
		}
		widened = append(widened, dataflow.UseDef{
			Use:   sets.Clone(ud.Use),
			Def:   sets.Clone(ud.Def),
			Kill:  ud.Kill,
			Calls: ud.Calls,
		})
		uds[id] = &widened[len(widened)-1]
	}
	dataflow.ApplyCallEffects(space, uds, p.Inter.Effects())

	reach := dataflow.ComputeReaching(space, g, uds)

	f := &FuncPDG{
		Fn:       fn,
		CFG:      g,
		Space:    space,
		UseDefs:  uds,
		Reaching: reach,
	}
	chains := reach.DefUseChains()
	if len(chains) > 0 {
		f.DataDeps = make([]DataDep, len(chains))
		for i, du := range chains {
			f.DataDeps[i] = DataDep{From: du.Def.Node, To: du.Use, Var: du.Var}
		}
	}
	f.Simple = p.buildSimplified(f, direct)
	return f
}

// CtrlDepsOf returns the branch nodes n is control dependent on.
func (f *FuncPDG) CtrlDepsOf(n cfg.NodeID) []cfg.NodeID { return f.CFG.CtrlDeps[n] }

// classify determines whether a CFG node is kept in the simplified graph
// and with what kind. Ordinary assignments and prints collapse into edges.
// Only the node's own expressions count: an if/while/for node is its
// predicate, and nested statements have their own nodes.
func classify(n *cfg.Node) (SimpleNodeKind, bool) {
	if n.ID == cfg.EntryNode {
		return SimpleEntry, true
	}
	if n.ID == cfg.ExitNode {
		return SimpleExit, true
	}
	var sync, call bool
	switch st := n.Stmt.(type) {
	case nil:
		return 0, false
	case *ast.IfStmt, *ast.WhileStmt, *ast.ForStmt:
		var cond ast.Expr
		switch st := st.(type) {
		case *ast.IfStmt:
			cond = st.Cond
		case *ast.WhileStmt:
			cond = st.Cond
		case *ast.ForStmt:
			cond = st.Cond
		}
		if sync, call = exprSyncCall(cond); sync || call {
			return SimpleCall, true // degenerate: predicate with a call
		}
		return SimpleBranch, true
	// Sync operations first: they are unit boundaries even when they also
	// contain calls (a recv in a call argument, say).
	case *ast.SemStmt, *ast.SendStmt, *ast.SpawnStmt:
		return SimpleSync, true
	case *ast.VarDeclStmt:
		sync, call = exprSyncCall(st.Init)
	case *ast.AssignStmt:
		sync, call = exprSyncCall(st.Index)
		s2, c2 := exprSyncCall(st.RHS)
		sync, call = sync || s2, call || c2
	case *ast.ReturnStmt:
		sync, call = exprSyncCall(st.Result)
	case *ast.ExprStmt:
		sync, call = exprSyncCall(st.X)
	case *ast.PrintStmt:
		for _, a := range st.Args {
			s2, c2 := exprSyncCall(a)
			sync, call = sync || s2, call || c2
		}
	}
	if sync {
		return SimpleSync, true
	}
	if call {
		return SimpleCall, true
	}
	return 0, false
}

// exprSyncCall reports whether e (nil allowed) contains a recv and whether
// it contains a call.
func exprSyncCall(e ast.Expr) (sync, call bool) {
	switch e := e.(type) {
	case *ast.RecvExpr:
		return true, false
	case *ast.CallExpr:
		for _, a := range e.Args {
			if s, _ := exprSyncCall(a); s {
				return true, true
			}
		}
		return false, true
	case *ast.UnaryExpr:
		return exprSyncCall(e.X)
	case *ast.ParenExpr:
		return exprSyncCall(e.X)
	case *ast.IndexExpr:
		return exprSyncCall(e.Index)
	case *ast.BinaryExpr:
		sx, cx := exprSyncCall(e.X)
		sy, cy := exprSyncCall(e.Y)
		return sx || sy, cx || cy
	}
	return false, false
}

func (p *Program) buildSimplified(f *FuncPDG, directUDs map[ast.StmtID]*dataflow.UseDef) *Simplified {
	g := f.CFG
	// The edges, units and their sets come from slabs: one edge per
	// successor of a kept node, with two sets, and one unit per
	// non-branching kept node but EXIT, with three.
	var kept []cfg.NodeID
	var kinds []SimpleNodeKind
	nEdges, nUnits := 0, 0
	for _, n := range g.Nodes {
		if kind, keep := classify(n); keep {
			kept, kinds = append(kept, n.ID), append(kinds, kind)
			nEdges += len(n.Succs)
			if !kind.Branching() && kind != SimpleExit {
				nUnits++
			}
		}
	}
	s := &Simplified{
		Kinds: make(map[cfg.NodeID]SimpleNodeKind, len(kept)),
		Out:   make(map[cfg.NodeID][]int, len(kept)),
		Edges: make([]*SimpleEdge, 0, nEdges),
	}
	for i, id := range kept {
		s.Kinds[id] = kinds[i]
	}
	sets := bitset.NewSlab(p.Info.NumGlobals(), 2*nEdges+3*nUnits)
	edges := make([]SimpleEdge, nEdges)
	// A kept node's edges get consecutive IDs, so its Out list is a run
	// of edgeIDs; the edges' interiors share one buffer too.
	edgeIDs := make([]int, nEdges)
	for i := range edgeIDs {
		edgeIDs[i] = i
	}
	interior := make([]cfg.NodeID, 0, len(g.Nodes))

	// addShared adds the shared globals of statement id's direct uses (or
	// defs) to dst.
	addShared := func(dst *bitset.Set, id ast.StmtID, defs bool) {
		if ud, ok := directUDs[id]; ok {
			set := ud.Use
			if defs {
				set = ud.Def
			}
			f.Space.AddGlobals(dst, set, p.SharedMask)
		}
	}

	// Collapse: from each kept node, follow each CFG successor through
	// non-kept (necessarily single-successor) nodes until the next kept
	// node, accumulating interior statements and their shared reads/writes.
	for _, from := range kept {
		first := len(s.Edges)
		for _, succ := range g.Nodes[from].Succs {
			e := &edges[0]
			edges = edges[1:]
			*e = SimpleEdge{
				ID:     len(s.Edges),
				From:   from,
				Reads:  sets.New(),
				Writes: sets.New(),
			}
			cur := succ
			guard := 0
			start := len(interior)
			for {
				if _, kept := s.Kinds[cur]; kept {
					break
				}
				n := g.Nodes[cur]
				interior = append(interior, cur)
				if n.Stmt != nil {
					addShared(e.Reads, n.Stmt.ID(), false)
					addShared(e.Writes, n.Stmt.ID(), true)
				}
				if len(n.Succs) == 0 {
					// Dead end (unreachable fragment); drop the edge.
					cur = -1
					break
				}
				cur = n.Succs[0]
				guard++
				if guard > len(g.Nodes)+1 {
					cur = -1 // defensive: malformed interior cycle
					break
				}
			}
			if cur == -1 {
				interior = interior[:start]
				continue
			}
			if len(interior) > start {
				e.Interior = interior[start:len(interior):len(interior)]
			}
			e.To = cur
			// A branching target's predicate reads occur on entry to the
			// node, i.e. while still inside this edge's unit.
			if kind := s.Kinds[cur]; kind.Branching() {
				if st := g.Nodes[cur].Stmt; st != nil {
					addShared(e.Reads, st.ID(), false)
				}
			}
			s.Edges = append(s.Edges, e)
		}
		if n := len(s.Edges); n > first {
			s.Out[from] = edgeIDs[first:n:n]
		}
	}

	s.Units = p.buildUnits(f, s, kept, nUnits, sets)
	return s
}

// buildUnits computes Definition 5.1 sync units for every non-branching
// node except EXIT (nothing is reachable from EXIT), in node order: ENTRY
// first, then by CFG node id.
func (p *Program) buildUnits(f *FuncPDG, s *Simplified, kept []cfg.NodeID, nUnits int, sets *bitset.Slab) []*SyncUnit {
	units := make([]*SyncUnit, 0, nUnits)
	slab := make([]SyncUnit, nUnits)
	direct := p.Inter.UseDefs[f.Fn.Name()]
	written := p.WrittenByOthers[f.Fn.Name()]
	seenEdge := make([]bool, len(s.Edges))
	var work []int
	for _, start := range kept {
		if kind := s.Kinds[start]; kind.Branching() || kind == SimpleExit {
			continue
		}
		u := &slab[len(units)]
		*u = SyncUnit{
			Start: start,
			Reads: sets.New(),
			Write: sets.New(),
		}
		// The start node's own direct reads happen at the unit's beginning
		// (call arguments, send values).
		if st := f.CFG.Nodes[start].Stmt; st != nil {
			if ud, ok := direct[st.ID()]; ok {
				f.Space.AddGlobals(u.Reads, ud.Use, p.SharedMask)
				f.Space.AddGlobals(u.Write, ud.Def, p.SharedMask)
			}
		}
		clear(seenEdge)
		work = append(work[:0], s.Out[start]...)
		for len(work) > 0 {
			eid := work[len(work)-1]
			work = work[:len(work)-1]
			if seenEdge[eid] {
				continue
			}
			seenEdge[eid] = true
			e := s.Edges[eid]
			u.Edges = append(u.Edges, eid)
			u.Reads.UnionWith(e.Reads)
			u.Write.UnionWith(e.Writes)
			if s.Kinds[e.To].Branching() {
				work = append(work, s.Out[e.To]...)
			}
		}
		sort.Ints(u.Edges)
		u.CrossReads = sets.Clone(u.Reads)
		u.CrossReads.IntersectWith(written)
		units = append(units, u)
	}
	return units
}

// UnitAt returns the sync unit starting at the given CFG node, or nil.
func (s *Simplified) UnitAt(n cfg.NodeID) *SyncUnit {
	for _, u := range s.Units {
		if u.Start == n {
			return u
		}
	}
	return nil
}

// String renders the simplified graph and its units for golden tests,
// mirroring the flavor of the paper's Fig 5.3 caption.
func (f *FuncPDG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simplified %s:\n", f.Fn.Name())
	s := f.Simple
	var kept []cfg.NodeID
	for id := range s.Kinds {
		kept = append(kept, id)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
	for _, id := range kept {
		label := s.Kinds[id].String()
		if st := f.CFG.Nodes[id].Stmt; st != nil {
			label = fmt.Sprintf("%s s%d %s", label, st.ID(), ast.StmtString(st))
		}
		fmt.Fprintf(&b, "  n%d [%s]\n", id, label)
	}
	for _, e := range s.Edges {
		fmt.Fprintf(&b, "  e%d: n%d->n%d interior=%d reads=%s writes=%s\n",
			e.ID, e.From, e.To, len(e.Interior), e.Reads, e.Writes)
	}
	for _, u := range s.Units {
		fmt.Fprintf(&b, "  unit@n%d edges=%v reads=%s writes=%s\n", u.Start, u.Edges, u.Reads, u.Write)
	}
	return b.String()
}

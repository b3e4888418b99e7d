// Package dynpdg builds dynamic program dependence graphs (§4.2) from
// traces: the run-time counterpart of the static PDG, with one node per
// executed event and edges for the flow, data, control, and synchronization
// relations the user navigates during flowback analysis.
//
// Node kinds follow Fig 4.1: ENTRY/EXIT, singular nodes (one per executed
// assignment or predicate, labelled with the assigned variable or predicate
// expression and its run-time value), and sub-graph nodes encapsulating a
// call (or a substituted loop). Parameter bindings appear as %1..%n nodes
// and a function's return value as %0; an argument that is an expression
// rather than a single variable gets a fictional singular node (the paper's
// "%3" in Fig 4.1).
package dynpdg

import (
	"fmt"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/logging"
	"ppd/internal/trace"
)

// NodeKind classifies dynamic-graph nodes.
type NodeKind int

// Dynamic graph node kinds.
const (
	NodeEntry NodeKind = iota
	NodeExit
	NodeSingular // assignment instance or predicate instance
	NodeSubGraph // call (or substituted loop) instance
	NodeParam    // %n parameter binding (including fictional expression args)
	NodeInitial  // value flowing in from the prelog (pre-interval state)
	NodeSync     // synchronization event instance
)

func (k NodeKind) String() string {
	switch k {
	case NodeEntry:
		return "ENTRY"
	case NodeExit:
		return "EXIT"
	case NodeSingular:
		return "singular"
	case NodeSubGraph:
		return "subgraph"
	case NodeParam:
		return "param"
	case NodeInitial:
		return "initial"
	case NodeSync:
		return "sync"
	}
	return "?"
}

// EdgeKind classifies dynamic-graph edges (§4.2's four types; flow edges are
// implicit in node order and also materialized for completeness).
type EdgeKind int

// Dynamic graph edge kinds.
const (
	EdgeFlow EdgeKind = iota
	EdgeData
	EdgeControl
	EdgeSync
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeFlow:
		return "flow"
	case EdgeData:
		return "data"
	case EdgeControl:
		return "ctrl"
	case EdgeSync:
		return "sync"
	}
	return "?"
}

// NodeID indexes nodes within one Graph.
type NodeID int

// Node is one dynamic-graph node.
type Node struct {
	ID       NodeID
	Kind     NodeKind
	Stmt     ast.StmtID // source statement (NoStmt for ENTRY/EXIT/initial)
	Label    string     // "d", "d>0", "SubD", "%3", ...
	Value    int64      // assigned value / predicate outcome / return value
	HasValue bool

	// Var is the function-space variable index the node defines, or -1.
	Var int

	// Seq is the node's position in execution order.
	Seq int
}

// Edge is one dependence edge.
type Edge struct {
	Kind EdgeKind
	From NodeID
	To   NodeID
	Var  int // data edges: the variable carried; else -1
}

// Graph is the dynamic PDG of one emulated interval (or one full-trace
// process).
type Graph struct {
	Art   *compile.Artifacts
	Fn    string // root function of the interval
	Nodes []*Node
	Edges []*Edge

	// incoming indexes edges by target for flowback navigation.
	incoming map[NodeID][]*Edge
	outgoing map[NodeID][]*Edge
}

// NewNode appends a node.
func (g *Graph) newNode(n *Node) *Node {
	n.ID = NodeID(len(g.Nodes))
	n.Seq = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n
}

func (g *Graph) addEdge(kind EdgeKind, from, to NodeID, v int) {
	e := &Edge{Kind: kind, From: from, To: to, Var: v}
	g.Edges = append(g.Edges, e)
	g.incoming[to] = append(g.incoming[to], e)
	g.outgoing[from] = append(g.outgoing[from], e)
}

// Incoming returns the edges arriving at n (the flowback direction).
func (g *Graph) Incoming(n NodeID) []*Edge { return g.incoming[n] }

// Outgoing returns the edges leaving n.
func (g *Graph) Outgoing(n NodeID) []*Edge { return g.outgoing[n] }

// LastNode returns the most recently created non-exit node, or nil. It is
// the root the debugger presents first ("the last statement executed").
func (g *Graph) LastNode() *Node {
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		if g.Nodes[i].Kind == NodeSingular || g.Nodes[i].Kind == NodeSubGraph || g.Nodes[i].Kind == NodeSync {
			return g.Nodes[i]
		}
	}
	return nil
}

// NodesForStmt returns all instances of a statement, in execution order.
func (g *Graph) NodesForStmt(id ast.StmtID) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Stmt == id {
			out = append(out, n)
		}
	}
	return out
}

// builder state for one activation (function instance) being walked.
type activation struct {
	fnIdx    int
	fnName   string
	numSlots int
	// lastWrite maps function-space var index -> defining node.
	lastWrite map[int]NodeID
	// ctrlStack holds the predicate nodes currently governing execution
	// (approximation: the static control dependences resolve which apply;
	// we use the static PDG to attach control edges precisely).
	callNode NodeID // the sub-graph node in the caller, or -1 for the root
}

// Build constructs the dynamic graph from an emulated interval's trace.
// rootFn names the function the interval belongs to.
func Build(art *compile.Artifacts, buf *trace.Buffer, rootFn string) *Graph {
	g := &Graph{
		Art:      art,
		Fn:       rootFn,
		incoming: make(map[NodeID][]*Edge),
		outgoing: make(map[NodeID][]*Edge),
	}
	b := &gbuilder{g: g, art: art}
	b.run(buf, rootFn)
	return g
}

type gbuilder struct {
	g   *Graph
	art *compile.Artifacts

	acts []*activation

	// lastWriteGlobal maps GlobalID -> defining node (globals are shared
	// across activations).
	lastWriteGlobal map[int]NodeID

	// current statement instance node per activation depth
	curStmtNode NodeID
	prevNode    NodeID // for flow edges

	// pending reads of the current statement instance: nodes feeding it.
	pendingDeps depSet

	// callSaves holds, per in-flight call, the caller's open statement node
	// and its unconsumed pending reads, so the statement instance resumes
	// when the call returns.
	callSaves []callSave

	// resume, when set, continues the saved statement instance at the next
	// EvStmt instead of opening a duplicate node.
	resume *callSave

	argVarsCache map[argVarsKey][][]int
}

type callSave struct {
	stmtNode NodeID
	pending  depSet
}

// dep is one pending read: the node whose value was read and the variable
// that carried it (-1 for a call's or recv's result).
type dep struct {
	node NodeID
	v    int
}

// depSet holds a statement instance's pending reads in ascending NodeID
// order, so the data edges they become are added in an order fixed by the
// trace alone: two builds of one interval render identically. Each node
// appears once; reading it again keeps the latest variable.
type depSet []dep

// add records a read of node n through variable v. Reads mostly arrive in
// ascending node order, so the insertion point is searched from the end.
func (s depSet) add(n NodeID, v int) depSet {
	i := len(s)
	for i > 0 && s[i-1].node > n {
		i--
	}
	if i > 0 && s[i-1].node == n {
		s[i-1].v = v
		return s
	}
	s = append(s, dep{})
	copy(s[i+1:], s[i:])
	s[i] = dep{node: n, v: v}
	return s
}

type argVarsKey struct {
	fn     string
	stmt   ast.StmtID
	callee int
}

func (b *gbuilder) top() *activation { return b.acts[len(b.acts)-1] }

func (b *gbuilder) run(buf *trace.Buffer, rootFn string) {
	fn := b.art.Prog.FuncByName(rootFn)
	b.lastWriteGlobal = make(map[int]NodeID)
	entry := b.g.newNode(&Node{Kind: NodeEntry, Label: "ENTRY:" + rootFn, Var: -1})
	b.prevNode = entry.ID
	b.acts = []*activation{{
		fnIdx:     fn.Idx,
		fnName:    rootFn,
		numSlots:  fn.NumSlots,
		lastWrite: make(map[int]NodeID),
		callNode:  -1,
	}}
	b.curStmtNode = -1

	for i := range buf.Events {
		b.event(&buf.Events[i])
	}
	if b.curStmtNode >= 0 && len(b.pendingDeps) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	exit := b.g.newNode(&Node{Kind: NodeExit, Label: "EXIT:" + rootFn, Var: -1})
	b.g.addEdge(EdgeFlow, b.prevNode, exit.ID, -1)
}

// defNodeFor returns (creating on demand) the node that defined var v as
// seen by the current activation. Unknown definitions become NodeInitial
// nodes: values that flowed in from the prelog (pre-interval state or
// another process — the controller resolves those across the parallel
// graph).
func (b *gbuilder) defNodeFor(v int) NodeID {
	act := b.top()
	if v >= act.numSlots { // global
		gid := v - act.numSlots
		if n, ok := b.lastWriteGlobal[gid]; ok {
			return n
		}
		name := b.art.Prog.Globals[gid].Name
		n := b.g.newNode(&Node{
			Kind: NodeInitial, Label: name + "@pre", Var: v,
		})
		b.lastWriteGlobal[gid] = n.ID
		return n.ID
	}
	if n, ok := act.lastWrite[v]; ok {
		return n
	}
	// A local read before any traced write: a parameter (bound at entry)
	// or prelog-restored loop local.
	label := fmt.Sprintf("%s@pre", b.localName(act, v))
	n := b.g.newNode(&Node{Kind: NodeInitial, Label: label, Var: v})
	act.lastWrite[v] = n.ID
	return n.ID
}

func (b *gbuilder) localName(act *activation, slot int) string {
	fi := b.art.Info.Funcs[act.fnName]
	if fi != nil && slot < len(fi.Locals) {
		return fi.Locals[slot].Name
	}
	return fmt.Sprintf("slot%d", slot)
}

func (b *gbuilder) varName(act *activation, v int) string {
	if v < 0 {
		return "?"
	}
	if v >= act.numSlots {
		return b.art.Prog.Globals[v-act.numSlots].Name
	}
	return b.localName(act, v)
}

// openStmt starts a node for a new statement instance, first flushing any
// reads still pending on the previous one (statements without writes or
// predicate outcomes — returns, prints, sends — keep their reads this way).
func (b *gbuilder) openStmt(kind NodeKind, stmt ast.StmtID, label string) *Node {
	if b.curStmtNode >= 0 && len(b.pendingDeps) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	n := b.g.newNode(&Node{Kind: kind, Stmt: stmt, Label: label, Var: -1})
	b.g.addEdge(EdgeFlow, b.prevNode, n.ID, -1)
	b.prevNode = n.ID
	b.curStmtNode = n.ID
	b.attachControl(n)
	return n
}

// attachControl adds the control-dependence edge from the most recent
// instance of the statement's static controlling predicate.
func (b *gbuilder) attachControl(n *Node) {
	if n.Stmt == ast.NoStmt {
		return
	}
	act := b.top()
	fpdg := b.art.PDG.Funcs[act.fnName]
	if fpdg == nil {
		return
	}
	cfgNode := fpdg.CFG.NodeFor(n.Stmt)
	if cfgNode < 0 {
		return
	}
	for _, dep := range fpdg.CtrlDepsOf(cfgNode) {
		depStmt := fpdg.CFG.Nodes[dep].Stmt
		if depStmt == nil {
			continue
		}
		// Find the most recent instance of that predicate in this graph.
		for i := len(b.g.Nodes) - 1; i >= 0; i-- {
			cand := b.g.Nodes[i]
			if cand.Stmt == depStmt.ID() && cand.ID != n.ID {
				b.g.addEdge(EdgeControl, cand.ID, n.ID, -1)
				break
			}
		}
	}
}

func (b *gbuilder) event(e *trace.Event) {
	act := b.top()
	switch e.Kind {
	case trace.EvStmt:
		if r := b.resume; r != nil {
			b.resume = nil
			if r.stmtNode >= 0 && b.g.Nodes[r.stmtNode].Stmt == e.Stmt {
				// Continuation of the statement instance that contained the
				// just-returned call: keep its node and restored reads.
				b.curStmtNode = r.stmtNode
				b.pendingDeps = r.pending
				return
			}
		}
		label := "s?"
		if st := b.art.Info.Prog.StmtByID(e.Stmt); st != nil {
			label = ast.StmtString(st)
		}
		b.openStmt(NodeSingular, e.Stmt, label)
		b.pendingDeps = b.pendingDeps[:0]

	case trace.EvRead:
		def := b.defNodeFor(e.Var)
		if b.curStmtNode >= 0 {
			b.pendingDeps = b.pendingDeps.add(def, e.Var)
		}

	case trace.EvWrite:
		if b.curStmtNode < 0 {
			return
		}
		n := b.g.Nodes[b.curStmtNode]
		if n.Kind == NodeSubGraph {
			// A substituted interval's postlog values: the sub-graph node
			// becomes the definition site of everything it wrote.
			if e.Var >= act.numSlots {
				b.lastWriteGlobal[e.Var-act.numSlots] = n.ID
			} else {
				act.lastWrite[e.Var] = n.ID
			}
			return
		}
		n.Label = b.varName(act, e.Var)
		n.Value = e.Value
		n.HasValue = true
		n.Var = e.Var
		b.flushDeps(n.ID)
		if e.Var >= act.numSlots {
			b.lastWriteGlobal[e.Var-act.numSlots] = n.ID
		} else {
			act.lastWrite[e.Var] = n.ID
		}

	case trace.EvPred:
		if b.curStmtNode < 0 {
			return
		}
		n := b.g.Nodes[b.curStmtNode]
		n.Value = e.Value
		n.HasValue = true
		b.flushDeps(n.ID)

	case trace.EvCallBegin:
		callee := b.art.Prog.Funcs[e.FuncIdx]
		sub := b.g.newNode(&Node{
			Kind: NodeSubGraph, Stmt: e.Stmt, Label: callee.Name, Var: -1,
		})
		b.g.addEdge(EdgeFlow, b.prevNode, sub.ID, -1)
		b.prevNode = sub.ID
		b.attachControl(b.g.Nodes[sub.ID])
		newAct := &activation{
			fnIdx:     e.FuncIdx,
			fnName:    callee.Name,
			numSlots:  callee.NumSlots,
			lastWrite: make(map[int]NodeID),
			callNode:  sub.ID,
		}
		remaining := b.bindParams(e, sub, func(i int, pn NodeID) {
			if i < len(callee.ParamSlots) {
				newAct.lastWrite[callee.ParamSlots[i]] = pn
			}
		})
		b.callSaves = append(b.callSaves, callSave{stmtNode: b.curStmtNode, pending: remaining})
		b.pendingDeps = b.pendingDeps[:0]
		b.acts = append(b.acts, newAct)
		b.curStmtNode = -1

	case trace.EvCallEnd:
		finished := b.acts[len(b.acts)-1]
		b.acts = b.acts[:len(b.acts)-1]
		if finished.callNode >= 0 {
			sub := b.g.Nodes[finished.callNode]
			if e.HasValue {
				sub.Value = e.Value
				sub.HasValue = true
			}
			// Resume the caller's statement instance: the call's result
			// (%0) feeds whatever consumes it, alongside the reads that
			// preceded the call.
			save := callSave{stmtNode: -1}
			if n := len(b.callSaves); n > 0 {
				save = b.callSaves[n-1]
				b.callSaves = b.callSaves[:n-1]
			}
			save.pending = save.pending.add(sub.ID, -1)
			b.resume = &save
			b.curStmtNode = -1
			b.pendingDeps = append(b.pendingDeps[:0], dep{node: sub.ID, v: -1})
			b.prevNode = sub.ID
		}

	case trace.EvCallSkipped:
		label := "loop"
		if e.FuncIdx >= 0 {
			label = b.art.Prog.Funcs[e.FuncIdx].Name
		}
		sub := b.g.newNode(&Node{
			Kind: NodeSubGraph, Stmt: e.Stmt, Label: label,
			Value: e.Value, HasValue: e.HasValue, Var: -1,
		})
		b.g.addEdge(EdgeFlow, b.prevNode, sub.ID, -1)
		b.prevNode = sub.ID
		b.attachControl(b.g.Nodes[sub.ID])
		remaining := b.bindParams(e, sub, nil).add(sub.ID, -1)
		b.resume = &callSave{stmtNode: b.curStmtNode, pending: remaining}
		b.pendingDeps = append(b.pendingDeps[:0], dep{node: sub.ID, v: -1})
		// The substituted postlog's EvWrite events follow; route them
		// through the sub-graph node by making it current.
		b.curStmtNode = sub.ID

	case trace.EvSync:
		st := b.art.Info.Prog.StmtByID(e.Stmt)
		stLabel := e.Op.String()
		if st != nil {
			stLabel = ast.StmtString(st)
		}
		// Pure synchronization statements (P, V, send, spawn) become a
		// single sync node: convert the statement's open singular node
		// rather than adding a second one.
		pureSync := false
		switch st.(type) {
		case *ast.SemStmt, *ast.SendStmt, *ast.SpawnStmt:
			pureSync = true
		}
		if pureSync && b.curStmtNode >= 0 && b.g.Nodes[b.curStmtNode].Stmt == e.Stmt {
			n := b.g.Nodes[b.curStmtNode]
			n.Kind = NodeSync
			b.flushDeps(n.ID) // send values / spawn arguments feed the event
			b.curStmtNode = -1
			return
		}
		n := b.g.newNode(&Node{Kind: NodeSync, Stmt: e.Stmt, Label: stLabel, Var: -1})
		b.g.addEdge(EdgeFlow, b.prevNode, n.ID, -1)
		b.prevNode = n.ID
		b.attachControl(b.g.Nodes[n.ID])
		if e.Op == logging.OpRecv {
			// The received value flows into whatever consumes it; the
			// enclosing statement (var v = recv(c)) stays current so its
			// store lands on its own node.
			b.pendingDeps = b.pendingDeps.add(n.ID, -1)
		}

	case trace.EvEnd:
		// handled by run's EXIT node
	}
}

func (b *gbuilder) flushDeps(to NodeID) {
	for _, d := range b.pendingDeps {
		if d.node == to {
			continue
		}
		b.g.addEdge(EdgeData, d.node, to, d.v)
	}
	b.pendingDeps = b.pendingDeps[:0]
}

// String renders the graph compactly for golden tests: one line per node
// with its incoming data/control edges.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&sb, "n%d %s", n.ID, n.Kind)
		if n.Stmt != ast.NoStmt {
			fmt.Fprintf(&sb, " s%d", n.Stmt)
		}
		fmt.Fprintf(&sb, " [%s]", n.Label)
		if n.HasValue {
			fmt.Fprintf(&sb, "=%d", n.Value)
		}
		var deps []string
		for _, e := range g.incoming[n.ID] {
			if e.Kind == EdgeFlow {
				continue
			}
			deps = append(deps, fmt.Sprintf("%s:n%d", e.Kind, e.From))
		}
		if len(deps) > 0 {
			fmt.Fprintf(&sb, " <- %s", strings.Join(deps, ","))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// bindParams creates the %1..%n parameter nodes of a call, attaching to
// each the pending reads that statically belong to that argument's
// expression (Fig 4.1's fictional nodes for expression arguments). It
// returns, as a new set, the pending reads no argument consumed, and
// invokes bound for each created node so callees can map them to
// parameter slots.
func (b *gbuilder) bindParams(e *trace.Event, sub *Node, bound func(i int, pn NodeID)) depSet {
	argVars := b.argVars(b.top().fnName, e.Stmt, e.FuncIdx)
	consumed := make([]bool, len(b.pendingDeps))
	for i, argv := range e.Args {
		pn := b.g.newNode(&Node{
			Kind: NodeParam, Stmt: e.Stmt,
			Label: fmt.Sprintf("%%%d", i+1), Value: argv, HasValue: true, Var: -1,
		})
		for k, d := range b.pendingDeps {
			v := d.v
			attach := false
			switch {
			case v == -1:
				// A nested call's or recv's result: it fed some argument;
				// without finer structure, attach to every parameter node.
				attach = true
			case i < len(argVars):
				for _, av := range argVars[i] {
					if av == v {
						attach = true
						break
					}
				}
			default:
				attach = true // no static info: attach conservatively
			}
			if attach {
				b.g.addEdge(EdgeData, d.node, pn.ID, v)
				consumed[k] = true
			}
		}
		b.g.addEdge(EdgeData, pn.ID, sub.ID, -1)
		if bound != nil {
			bound(i, pn.ID)
		}
	}
	var remaining depSet
	for k, d := range b.pendingDeps {
		if !consumed[k] {
			remaining = append(remaining, d)
		}
	}
	return remaining
}

// argVars resolves, per argument position, the variable space indices the
// argument expression reads, using the AST (cached per call site).
func (b *gbuilder) argVars(fnName string, stmt ast.StmtID, calleeIdx int) [][]int {
	if b.argVarsCache == nil {
		b.argVarsCache = make(map[argVarsKey][][]int)
	}
	key := argVarsKey{fn: fnName, stmt: stmt, callee: calleeIdx}
	if v, ok := b.argVarsCache[key]; ok {
		return v
	}
	var out [][]int
	st := b.art.Info.Prog.StmtByID(stmt)
	fi := b.art.Info.Funcs[fnName]
	if st != nil && fi != nil && calleeIdx >= 0 && calleeIdx < len(b.art.Prog.Funcs) {
		calleeName := b.art.Prog.Funcs[calleeIdx].Name
		space := b.art.PDG.Funcs[fnName].Space
		var call *ast.CallExpr
		ast.Inspect(st, func(n ast.Node) bool {
			if call != nil {
				return false
			}
			// Do not descend into nested statements: they are separate
			// trace events.
			switch n.(type) {
			case *ast.BlockStmt:
				return false
			}
			if ce, ok := n.(*ast.CallExpr); ok && ce.Fun.Name == calleeName {
				call = ce
				return false
			}
			return true
		})
		if call != nil {
			for _, arg := range call.Args {
				var vars []int
				ast.Inspect(arg, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if sym := b.art.Info.Uses[id]; sym != nil {
							if idx := space.Index(sym); idx >= 0 {
								vars = append(vars, idx)
							}
						}
					}
					return true
				})
				out = append(out, vars)
			}
		}
	}
	b.argVarsCache[key] = out
	return out
}

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
	"strconv"
	"strings"
	"sync"

	"ppd/internal/ast"
	"ppd/internal/compile"
	"ppd/internal/logging"
	"ppd/internal/pdg"
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

	// inAt and outAt index Edges by NodeID, for flowback navigation: node
	// n's incoming edges are in[inAt[n]:inAt[n+1]] and its outgoing ones
	// out[outAt[n]:outAt[n+1]], each in the order the edges were added.
	inAt, outAt []int
	in, out     []*Edge
}

// Incoming returns the edges arriving at n (the flowback direction).
func (g *Graph) Incoming(n NodeID) []*Edge { return g.in[g.inAt[n]:g.inAt[n+1]:g.inAt[n+1]] }

// Outgoing returns the edges leaving n.
func (g *Graph) Outgoing(n NodeID) []*Edge { return g.out[g.outAt[n]:g.outAt[n+1]:g.outAt[n+1]] }

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
	fnName   string
	fpdg     *pdg.FuncPDG
	numSlots int
	// lastWrite maps function-space local slot -> defining node, or -1.
	lastWrite []NodeID
	callNode  NodeID // the sub-graph node in the caller, or -1 for the root
}

// Build constructs the dynamic graph from an emulated interval's trace.
// rootFn names the function the interval belongs to.
func Build(art *compile.Artifacts, buf *trace.Buffer, rootFn string) *Graph {
	b := builders.Get().(*gbuilder)
	g := b.run(art, buf, rootFn)
	b.art = nil
	builders.Put(b)
	return g
}

// builders recycles the builder's scratch (nodes and edges under
// construction, the dense indexes, the activation stack) across builds:
// a graph owns only exact-size copies of what it keeps.
var builders = sync.Pool{New: func() any { return new(gbuilder) }}

type gbuilder struct {
	art *compile.Artifacts

	// nodes and edges under construction, by NodeID and in order.
	nodes []Node
	edges []Edge

	acts []activation

	// lastWriteGlobal maps GlobalID -> defining node, or -1 (globals are
	// shared across activations).
	lastWriteGlobal []NodeID

	// lastInst maps StmtID -> the most recent node of that statement, or
	// -1; prevInst is the entry the newest node displaced, so the newest
	// node can find its own statement's previous instance.
	lastInst []NodeID
	prevInst NodeID

	// current statement instance node per activation depth
	curStmtNode NodeID
	prevNode    NodeID // for flow edges

	// pending reads of the current statement instance: nodes feeding it.
	pendingDeps depSet

	// callSaves holds, per in-flight call, the caller's open statement node
	// and its unconsumed pending reads, so the statement instance resumes
	// when the call returns.
	callSaves []callSave

	// resume, when resuming, continues the saved statement instance at the
	// next EvStmt instead of opening a duplicate node.
	resume   callSave
	resuming bool

	consumed []bool // bindParams scratch
	// saved backs the pending-read sets bindParams hands to callSaves and
	// resume. A set is copied out when its statement resumes, so a later
	// carve never shares memory with a live set.
	saved []dep

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

func (b *gbuilder) top() *activation { return &b.acts[len(b.acts)-1] }

func (b *gbuilder) run(art *compile.Artifacts, buf *trace.Buffer, rootFn string) *Graph {
	b.reset(art, len(buf.Events))
	fn := art.Prog.FuncByName(rootFn)
	b.prevNode = b.newNode(NodeEntry, ast.NoStmt, "ENTRY:"+rootFn, -1)
	b.pushAct(rootFn, fn.NumSlots, -1)
	b.curStmtNode = -1

	for i := range buf.Events {
		b.event(&buf.Events[i])
	}
	if b.curStmtNode >= 0 && len(b.pendingDeps) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	exit := b.newNode(NodeExit, ast.NoStmt, "EXIT:"+rootFn, -1)
	b.addEdge(EdgeFlow, b.prevNode, exit, -1)
	return b.graph(rootFn)
}

// reset readies a recycled builder for a trace of the given length. The
// scratch is sized from it: a graph holds about one node per two or three
// events and about one edge per event (more on the shortest intervals,
// where the scratch then grows).
func (b *gbuilder) reset(art *compile.Artifacts, events int) {
	b.art = art
	if cap(b.nodes) < events/2+8 {
		b.nodes = make([]Node, 0, events/2+8)
	}
	if cap(b.edges) < events+8 {
		b.edges = make([]Edge, 0, events+8)
	}
	b.nodes, b.edges = b.nodes[:0], b.edges[:0]
	b.acts = b.acts[:0]
	b.lastWriteGlobal = unset(b.lastWriteGlobal, len(art.Prog.Globals))
	b.lastInst = unset(b.lastInst, art.Info.Prog.NumStmts+1)
	b.pendingDeps = b.pendingDeps[:0]
	b.saved = b.saved[:0]
	b.callSaves = b.callSaves[:0]
	b.resuming = false
	clear(b.argVarsCache)
}

// unset returns s resized to n entries, all -1.
func unset(s []NodeID, n int) []NodeID {
	if cap(s) < n {
		s = make([]NodeID, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = -1
	}
	return s
}

// graph hands the finished nodes and edges to a new Graph, each kind in
// one exact-size array, and indexes the edges by target and by source.
func (b *gbuilder) graph(rootFn string) *Graph {
	nodes := make([]Node, len(b.nodes))
	copy(nodes, b.nodes)
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	g := &Graph{
		Art:   b.art,
		Fn:    rootFn,
		Nodes: make([]*Node, len(nodes)),
		Edges: make([]*Edge, len(edges)),
	}
	for i := range nodes {
		g.Nodes[i] = &nodes[i]
	}
	for i := range edges {
		g.Edges[i] = &edges[i]
	}
	n, m := len(nodes), len(edges)
	at := make([]int, 2*(n+1))
	g.inAt, g.outAt = at[:n+1], at[n+1:]
	for i := range edges {
		g.inAt[edges[i].To+1]++
		g.outAt[edges[i].From+1]++
	}
	for i := 1; i <= n; i++ {
		g.inAt[i] += g.inAt[i-1]
		g.outAt[i] += g.outAt[i-1]
	}
	ends := make([]*Edge, 2*m)
	g.in, g.out = ends[:m], ends[m:]
	for _, e := range g.Edges {
		g.in[g.inAt[e.To]] = e
		g.inAt[e.To]++
		g.out[g.outAt[e.From]] = e
		g.outAt[e.From]++
	}
	// Filling advanced each node's start to the next node's: shift back.
	copy(g.inAt[1:], g.inAt[:n])
	copy(g.outAt[1:], g.outAt[:n])
	g.inAt[0], g.outAt[0] = 0, 0
	return g
}

// newNode appends a node and returns its ID.
func (b *gbuilder) newNode(kind NodeKind, stmt ast.StmtID, label string, v int) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Kind: kind, Stmt: stmt, Label: label, Var: v, Seq: int(id)})
	if stmt != ast.NoStmt {
		b.prevInst, b.lastInst[stmt] = b.lastInst[stmt], id
	}
	return id
}

func (b *gbuilder) addEdge(kind EdgeKind, from, to NodeID, v int) {
	b.edges = append(b.edges, Edge{Kind: kind, From: from, To: to, Var: v})
}

// pushAct enters an activation of fnName, reusing the lastWrite slice an
// earlier activation at this depth left behind.
func (b *gbuilder) pushAct(fnName string, numSlots int, callNode NodeID) *activation {
	n := len(b.acts)
	if n < cap(b.acts) {
		b.acts = b.acts[:n+1]
	} else {
		b.acts = append(b.acts, activation{})
	}
	a := &b.acts[n]
	a.fnName, a.fpdg, a.numSlots, a.callNode = fnName, b.art.PDG.Funcs[fnName], numSlots, callNode
	a.lastWrite = unset(a.lastWrite, numSlots)
	return a
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
		if n := b.lastWriteGlobal[gid]; n >= 0 {
			return n
		}
		n := b.newNode(NodeInitial, ast.NoStmt, b.art.Prog.Globals[gid].Name+"@pre", v)
		b.lastWriteGlobal[gid] = n
		return n
	}
	if n := act.lastWrite[v]; n >= 0 {
		return n
	}
	// A local read before any traced write: a parameter (bound at entry)
	// or prelog-restored loop local.
	n := b.newNode(NodeInitial, ast.NoStmt, b.localName(act, v)+"@pre", v)
	act.lastWrite[v] = n
	return n
}

func (b *gbuilder) localName(act *activation, slot int) string {
	fi := b.art.Info.Funcs[act.fnName]
	if fi != nil && slot < len(fi.Locals) {
		return fi.Locals[slot].Name
	}
	return "slot" + strconv.Itoa(slot)
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

// stmtLabel is a statement's one-line text, as the program database
// rendered it; fallback labels statements the database does not know.
func (b *gbuilder) stmtLabel(id ast.StmtID, fallback string) string {
	if b.art.DB != nil {
		if si := b.art.DB.Stmt(id); si != nil {
			return si.Text
		}
	}
	if st := b.art.Info.Prog.StmtByID(id); st != nil {
		return ast.StmtString(st)
	}
	return fallback
}

// paramLabels are the labels of the first parameter nodes, %1 onward.
var paramLabels = [...]string{"%1", "%2", "%3", "%4", "%5", "%6", "%7", "%8", "%9"}

func paramLabel(i int) string {
	if i < len(paramLabels) {
		return paramLabels[i]
	}
	return "%" + strconv.Itoa(i+1)
}

// openStmt starts a node for a new statement instance, first flushing any
// reads still pending on the previous one (statements without writes or
// predicate outcomes — returns, prints, sends — keep their reads this way).
func (b *gbuilder) openStmt(kind NodeKind, stmt ast.StmtID, label string) {
	if b.curStmtNode >= 0 && len(b.pendingDeps) > 0 {
		b.flushDeps(b.curStmtNode)
	}
	n := b.newNode(kind, stmt, label, -1)
	b.addEdge(EdgeFlow, b.prevNode, n, -1)
	b.prevNode = n
	b.curStmtNode = n
	b.attachControl(n)
}

// attachControl adds the control-dependence edge from the most recent
// instance of the statement's static controlling predicate. n must be the
// newest node; it is never its own controlling instance.
func (b *gbuilder) attachControl(n NodeID) {
	stmt := b.nodes[n].Stmt
	if stmt == ast.NoStmt {
		return
	}
	fpdg := b.top().fpdg
	if fpdg == nil {
		return
	}
	cfgNode := fpdg.CFG.NodeFor(stmt)
	if cfgNode < 0 {
		return
	}
	for _, dep := range fpdg.CtrlDepsOf(cfgNode) {
		depStmt := fpdg.CFG.Nodes[dep].Stmt
		if depStmt == nil {
			continue
		}
		cand := b.lastInst[depStmt.ID()]
		if cand == n {
			cand = b.prevInst
		}
		if cand >= 0 {
			b.addEdge(EdgeControl, cand, n, -1)
		}
	}
}

func (b *gbuilder) event(e *trace.Event) {
	act := b.top()
	switch e.Kind {
	case trace.EvStmt:
		if b.resuming {
			b.resuming = false
			if r := b.resume; r.stmtNode >= 0 && b.nodes[r.stmtNode].Stmt == e.Stmt {
				// Continuation of the statement instance that contained the
				// just-returned call: keep its node and restored reads.
				b.curStmtNode = r.stmtNode
				b.pendingDeps = append(b.pendingDeps[:0], r.pending...)
				return
			}
		}
		b.openStmt(NodeSingular, e.Stmt, b.stmtLabel(e.Stmt, "s?"))
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
		n := &b.nodes[b.curStmtNode]
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
		n := &b.nodes[b.curStmtNode]
		n.Value = e.Value
		n.HasValue = true
		b.flushDeps(n.ID)

	case trace.EvCallBegin:
		callee := b.art.Prog.Funcs[e.FuncIdx]
		sub := b.newNode(NodeSubGraph, e.Stmt, callee.Name, -1)
		b.addEdge(EdgeFlow, b.prevNode, sub, -1)
		b.prevNode = sub
		b.attachControl(sub)
		remaining := b.bindParams(e, act.fnName, sub)
		b.callSaves = append(b.callSaves, callSave{stmtNode: b.curStmtNode, pending: remaining})
		b.pendingDeps = b.pendingDeps[:0]
		newAct := b.pushAct(callee.Name, callee.NumSlots, sub)
		// bindParams created %i+1 as node sub+1+i.
		for i := range e.Args {
			if i < len(callee.ParamSlots) {
				newAct.lastWrite[callee.ParamSlots[i]] = sub + 1 + NodeID(i)
			}
		}
		b.curStmtNode = -1

	case trace.EvCallEnd:
		finished := b.acts[len(b.acts)-1].callNode
		b.acts = b.acts[:len(b.acts)-1]
		if finished >= 0 {
			sub := &b.nodes[finished]
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
			save.pending = save.pending.add(finished, -1)
			b.resume, b.resuming = save, true
			b.curStmtNode = -1
			b.pendingDeps = append(b.pendingDeps[:0], dep{node: finished, v: -1})
			b.prevNode = finished
		}

	case trace.EvCallSkipped:
		label := "loop"
		if e.FuncIdx >= 0 {
			label = b.art.Prog.Funcs[e.FuncIdx].Name
		}
		sub := b.newNode(NodeSubGraph, e.Stmt, label, -1)
		b.nodes[sub].Value, b.nodes[sub].HasValue = e.Value, e.HasValue
		b.addEdge(EdgeFlow, b.prevNode, sub, -1)
		b.prevNode = sub
		b.attachControl(sub)
		remaining := b.bindParams(e, act.fnName, sub).add(sub, -1)
		b.resume, b.resuming = callSave{stmtNode: b.curStmtNode, pending: remaining}, true
		b.pendingDeps = append(b.pendingDeps[:0], dep{node: sub, v: -1})
		// The substituted postlog's EvWrite events follow; route them
		// through the sub-graph node by making it current.
		b.curStmtNode = sub

	case trace.EvSync:
		st := b.art.Info.Prog.StmtByID(e.Stmt)
		// Pure synchronization statements (P, V, send, spawn) become a
		// single sync node: convert the statement's open singular node
		// rather than adding a second one.
		pureSync := false
		switch st.(type) {
		case *ast.SemStmt, *ast.SendStmt, *ast.SpawnStmt:
			pureSync = true
		}
		if pureSync && b.curStmtNode >= 0 && b.nodes[b.curStmtNode].Stmt == e.Stmt {
			b.nodes[b.curStmtNode].Kind = NodeSync
			b.flushDeps(b.curStmtNode) // send values / spawn arguments feed the event
			b.curStmtNode = -1
			return
		}
		n := b.newNode(NodeSync, e.Stmt, b.stmtLabel(e.Stmt, e.Op.String()), -1)
		b.addEdge(EdgeFlow, b.prevNode, n, -1)
		b.prevNode = n
		b.attachControl(n)
		if e.Op == logging.OpRecv {
			// The received value flows into whatever consumes it; the
			// enclosing statement (var v = recv(c)) stays current so its
			// store lands on its own node.
			b.pendingDeps = b.pendingDeps.add(n, -1)
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
		b.addEdge(EdgeData, d.node, to, d.v)
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
		for _, e := range g.Incoming(n.ID) {
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

// bindParams creates the %1..%n parameter nodes of a call made from
// callerFn, as nodes sub+1..sub+n, attaching to each the pending reads
// that statically belong to that argument's expression (Fig 4.1's
// fictional nodes for expression arguments). It returns, as a new set,
// the pending reads no argument consumed.
func (b *gbuilder) bindParams(e *trace.Event, callerFn string, sub NodeID) depSet {
	argVars := b.argVars(callerFn, e.Stmt, e.FuncIdx)
	b.consumed = append(b.consumed[:0], make([]bool, len(b.pendingDeps))...)
	consumed := b.consumed
	for i, argv := range e.Args {
		pn := b.newNode(NodeParam, e.Stmt, paramLabel(i), -1)
		b.nodes[pn].Value, b.nodes[pn].HasValue = argv, true
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
				b.addEdge(EdgeData, d.node, pn, v)
				consumed[k] = true
			}
		}
		b.addEdge(EdgeData, pn, sub, -1)
	}
	start := len(b.saved)
	for k, d := range b.pendingDeps {
		if !consumed[k] {
			b.saved = append(b.saved, d)
		}
	}
	// One spare slot takes the call's result when the call returns.
	b.saved = append(b.saved, dep{})
	end := len(b.saved) - 1
	return b.saved[start:end:len(b.saved)]
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

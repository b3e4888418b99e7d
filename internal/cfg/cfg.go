// Package cfg builds statement-level control-flow graphs for MPL functions
// and computes dominators, postdominators, control dependence (per
// Ferrante/Ottenstein/Warren, which the paper's static PDG builds on), and
// natural loops (which e-block construction uses for §5.4's loop e-blocks).
//
// Each executable statement is one CFG node; synthetic ENTRY and EXIT nodes
// bracket the function, mirroring the ENTRY/EXIT nodes of the paper's
// dependence graphs (§4.2).
package cfg

import (
	"fmt"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/sem"
)

// NodeID indexes a node within one function's Graph.
type NodeID int

// Synthetic node positions: Entry is always node 0, Exit node 1.
const (
	EntryNode NodeID = 0
	ExitNode  NodeID = 1
)

// Node is one CFG node.
type Node struct {
	ID    NodeID
	Stmt  ast.Stmt // nil for ENTRY/EXIT
	Succs []NodeID
	Preds []NodeID

	// IsBranch marks predicate nodes (if/while/for conditions) whose
	// outgoing edges are labelled true/false in order.
	IsBranch bool
}

// StmtID returns the AST statement ID of the node, or ast.NoStmt for
// synthetic nodes.
func (n *Node) StmtID() ast.StmtID {
	if n.Stmt == nil {
		return ast.NoStmt
	}
	return n.Stmt.ID()
}

// Graph is the CFG of one function.
type Graph struct {
	Fn    *sem.FuncInfo
	Nodes []*Node

	byStmt map[ast.StmtID]NodeID

	idom  []NodeID // immediate dominator per node; -1 for entry/unreachable
	ipdom []NodeID // immediate postdominator per node; -1 for exit/unreachable

	// CtrlDeps[y] lists the branch nodes y is control dependent on.
	CtrlDeps [][]NodeID

	// Loops lists natural loops, outermost first.
	Loops []*Loop
}

// Loop is a natural loop discovered from a back edge.
type Loop struct {
	Head NodeID
	Body []NodeID // includes Head
}

// NodeFor returns the CFG node for a statement ID, or -1.
func (g *Graph) NodeFor(id ast.StmtID) NodeID {
	if n, ok := g.byStmt[id]; ok {
		return n
	}
	return -1
}

// Entry and Exit accessors.
func (g *Graph) Entry() *Node { return g.Nodes[EntryNode] }

// Exit returns the synthetic EXIT node.
func (g *Graph) Exit() *Node { return g.Nodes[ExitNode] }

// Dominates reports whether a dominates b.
func (g *Graph) Dominates(a, b NodeID) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = g.idom[b]
	}
	return false
}

type builder struct {
	g *Graph

	nodes []Node   // slab the next nodes come from
	ids   []NodeID // slab of two-element edge lists

	// Loop stacks: continueTargets holds the node a continue jumps to;
	// breakTargets only tracks depth (break edges are collected per loop in
	// pendingBreaks and wired to the loop's exit frontier by the caller).
	breakTargets    []NodeID
	continueTargets []NodeID
	pendingBreaks   map[int][]NodeID
}

// Build constructs the CFG for fn and runs all analyses. numStmts, the
// function's statement count (blocks excluded), sizes the graph: a node per
// statement plus ENTRY and EXIT, allocated together.
func Build(fn *sem.FuncInfo, numStmts int) *Graph {
	n := numStmts + 2
	g := &Graph{
		Fn:     fn,
		Nodes:  make([]*Node, 0, n),
		byStmt: make(map[ast.StmtID]NodeID, numStmts),
	}
	b := &builder{g: g, nodes: make([]Node, n), ids: make([]NodeID, 4*n)}
	b.newNode(nil, false) // entry
	b.newNode(nil, false) // exit

	ends := b.buildBlock(fn.Decl.Body, []NodeID{EntryNode})
	for _, e := range ends {
		b.edge(e, ExitNode)
	}
	// A function whose entry can't reach any statement (empty body) still
	// needs entry→exit.
	if len(g.Nodes[EntryNode].Succs) == 0 {
		b.edge(EntryNode, ExitNode)
	}

	g.computeDominators()
	g.computePostdominators()
	g.computeControlDeps()
	g.findLoops()
	return g
}

func (b *builder) newNode(s ast.Stmt, branch bool) NodeID {
	id := NodeID(len(b.g.Nodes))
	var n *Node
	if len(b.nodes) > 0 {
		n, b.nodes = &b.nodes[0], b.nodes[1:]
	} else {
		n = new(Node)
	}
	n.ID, n.Stmt, n.IsBranch = id, s, branch
	b.g.Nodes = append(b.g.Nodes, n)
	if s != nil && s.ID() != ast.NoStmt {
		b.g.byStmt[s.ID()] = id
	}
	return id
}

func (b *builder) edge(from, to NodeID) {
	f, t := b.g.Nodes[from], b.g.Nodes[to]
	f.Succs = append(b.list(f.Succs), to)
	t.Preds = append(b.list(t.Preds), from)
}

// list returns l, or an empty list with room for two edges from the slab
// when l is nil: most nodes have one or two of each.
func (b *builder) list(l []NodeID) []NodeID {
	if l != nil || len(b.ids) < 2 {
		return l
	}
	l, b.ids = b.ids[:0:2], b.ids[2:]
	return l
}

// buildBlock threads the statements of blk after the given predecessor
// frontier and returns the new frontier (nodes whose control falls out the
// end). An empty frontier means control never reaches that point.
func (b *builder) buildBlock(blk *ast.BlockStmt, preds []NodeID) []NodeID {
	cur := preds
	for _, s := range blk.List {
		cur = b.buildStmt(s, cur)
	}
	return cur
}

func (b *builder) link(preds []NodeID, n NodeID) {
	for _, p := range preds {
		b.edge(p, n)
	}
}

func (b *builder) buildStmt(s ast.Stmt, preds []NodeID) []NodeID {
	if len(preds) == 0 {
		// Unreachable code still gets nodes so every StmtID maps somewhere,
		// but has no predecessors.
		preds = nil
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.buildBlock(s, preds)

	case *ast.IfStmt:
		n := b.newNode(s, true)
		b.link(preds, n)
		thenEnds := b.buildBlock(s.Then, []NodeID{n})
		var elseEnds []NodeID
		if s.Else != nil {
			elseEnds = b.buildStmt(s.Else, []NodeID{n})
		} else {
			elseEnds = []NodeID{n}
		}
		return append(thenEnds, elseEnds...)

	case *ast.WhileStmt:
		n := b.newNode(s, true)
		b.link(preds, n)
		b.breakTargets = append(b.breakTargets, -1) // sentinel replaced below
		b.continueTargets = append(b.continueTargets, n)
		breakIdx := len(b.breakTargets) - 1
		bodyEnds, breaks := b.buildLoopBody(s.Body, n, breakIdx)
		for _, e := range bodyEnds {
			b.edge(e, n) // back edge
		}
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		return append([]NodeID{n}, breaks...)

	case *ast.ForStmt:
		cur := preds
		if s.Init != nil {
			cur = b.buildStmt(s.Init, cur)
		}
		n := b.newNode(s, true) // the for's condition node
		b.link(cur, n)
		var postNode NodeID = -1
		if s.Post != nil {
			postNode = b.newNode(s.Post, false)
			b.edge(postNode, n)
		}
		contTarget := n
		if postNode != -1 {
			contTarget = postNode
		}
		b.breakTargets = append(b.breakTargets, -1)
		b.continueTargets = append(b.continueTargets, contTarget)
		breakIdx := len(b.breakTargets) - 1
		bodyEnds, breaks := b.buildLoopBody(s.Body, n, breakIdx)
		for _, e := range bodyEnds {
			if postNode != -1 {
				b.edge(e, postNode)
			} else {
				b.edge(e, n)
			}
		}
		b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
		b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
		return append([]NodeID{n}, breaks...)

	case *ast.ReturnStmt:
		n := b.newNode(s, false)
		b.link(preds, n)
		b.edge(n, ExitNode)
		return nil

	case *ast.BreakStmt:
		n := b.newNode(s, false)
		b.link(preds, n)
		b.pendingBreaks[len(b.breakTargets)-1] = append(b.pendingBreaks[len(b.breakTargets)-1], n)
		return nil

	case *ast.ContinueStmt:
		n := b.newNode(s, false)
		b.link(preds, n)
		b.edge(n, b.continueTargets[len(b.continueTargets)-1])
		return nil

	default:
		n := b.newNode(s, false)
		b.link(preds, n)
		return []NodeID{n}
	}
}

func (b *builder) buildLoopBody(body *ast.BlockStmt, head NodeID, breakIdx int) (bodyEnds, breaks []NodeID) {
	if b.pendingBreaks == nil {
		b.pendingBreaks = make(map[int][]NodeID)
	}
	b.pendingBreaks[breakIdx] = nil
	bodyEnds = b.buildBlock(body, []NodeID{head})
	breaks = b.pendingBreaks[breakIdx]
	delete(b.pendingBreaks, breakIdx)
	return bodyEnds, breaks
}

// ------------------------------------------------------------- dominators

// computeDominators runs the iterative dataflow algorithm (Cooper/Harvey/
// Kennedy style, on reverse postorder).
func (g *Graph) computeDominators() {
	g.idom = computeIdom(len(g.Nodes), int(EntryNode),
		func(n int) []NodeID { return g.Nodes[n].Preds },
		func(n int) []NodeID { return g.Nodes[n].Succs })
}

func (g *Graph) computePostdominators() {
	g.ipdom = computeIdom(len(g.Nodes), int(ExitNode),
		func(n int) []NodeID { return g.Nodes[n].Succs },
		func(n int) []NodeID { return g.Nodes[n].Preds })
}

// computeIdom computes immediate dominators of a graph presented by its
// pred/succ accessors, rooted at root. Unreachable nodes get -1.
func computeIdom(n, root int, preds, succs func(int) []NodeID) []NodeID {
	// Reverse postorder from root following succs.
	order := make([]int, 0, n)
	visited := make([]bool, n)
	var dfs func(int)
	dfs = func(u int) {
		visited[u] = true
		for _, v := range succs(u) {
			if !visited[v] {
				dfs(int(v))
			}
		}
		order = append(order, u)
	}
	dfs(root)
	// order is postorder; reverse for RPO.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, u := range order {
		rpoNum[u] = i
	}

	idom := make([]NodeID, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = NodeID(root)

	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = int(idom[a])
			}
			for rpoNum[b] > rpoNum[a] {
				b = int(idom[b])
			}
		}
		return a
	}

	changed := true
	for changed {
		changed = false
		for _, u := range order {
			if u == root {
				continue
			}
			newIdom := -1
			for _, p := range preds(u) {
				if idom[p] == -1 {
					continue // predecessor not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = int(p)
				} else {
					newIdom = intersect(newIdom, int(p))
				}
			}
			if newIdom != -1 && idom[u] != NodeID(newIdom) {
				idom[u] = NodeID(newIdom)
				changed = true
			}
		}
	}
	idom[root] = -1 // root has no immediate dominator
	return idom
}

// computeControlDeps computes, for every node, the set of branch nodes it is
// control dependent on (FOW algorithm over the postdominator tree).
func (g *Graph) computeControlDeps() {
	g.CtrlDeps = make([][]NodeID, len(g.Nodes))
	// seenFor[y] = x+1 once y is recorded as control dependent on x; each
	// branch x is handled in one pass, so one mark per node suffices.
	seenFor := make([]NodeID, len(g.Nodes))
	for _, x := range g.Nodes {
		if len(x.Succs) < 2 {
			continue
		}
		for _, y := range x.Succs {
			// Walk up the postdominator tree from y to ipdom(x), exclusive.
			stop := g.ipdom[x.ID]
			cur := y
			for cur != -1 && cur != stop {
				if seenFor[cur] != x.ID+1 {
					seenFor[cur] = x.ID + 1
					g.CtrlDeps[cur] = append(g.CtrlDeps[cur], x.ID)
				}
				cur = g.ipdom[cur]
			}
		}
	}
}

// ------------------------------------------------------------- loops

// findLoops locates natural loops via back edges (u→h where h dominates u).
func (g *Graph) findLoops() {
	for _, u := range g.Nodes {
		for _, h := range u.Succs {
			if !g.Dominates(h, u.ID) {
				continue
			}
			// Natural loop of back edge u→h.
			inLoop := map[NodeID]bool{h: true}
			stack := []NodeID{}
			if !inLoop[u.ID] {
				inLoop[u.ID] = true
				stack = append(stack, u.ID)
			}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range g.Nodes[v].Preds {
					if !inLoop[p] {
						inLoop[p] = true
						stack = append(stack, p)
					}
				}
			}
			body := make([]NodeID, 0, len(inLoop))
			for v := range inLoop {
				body = append(body, v)
			}
			g.Loops = append(g.Loops, &Loop{Head: h, Body: body})
		}
	}
}

// String renders the CFG for debugging and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cfg %s:\n", g.Fn.Name())
	for _, n := range g.Nodes {
		label := "ENTRY"
		switch {
		case n.ID == ExitNode:
			label = "EXIT"
		case n.Stmt != nil:
			label = fmt.Sprintf("s%d %s", n.Stmt.ID(), ast.StmtString(n.Stmt))
		}
		fmt.Fprintf(&b, "  n%d [%s] ->", n.ID, label)
		for _, s := range n.Succs {
			fmt.Fprintf(&b, " n%d", s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package main

import (
	"fmt"
	"strings"

	"ppd/internal/ast"
	"ppd/internal/dynpdg"
)

// checkFragment verifies that frag is what controller.RenderFragment(g,
// root, depth) renders for some order of each node's incoming edges.
// RenderFragment follows dynpdg's edge order, which varies between builds
// of one graph, so a rendered fragment cannot be compared as text; this
// walks the fragment the way RenderFragment walks the graph and, at each
// expanded node, requires the child lines to use each of the node's
// non-flow incoming edges exactly once. The incoming edges are taken
// from g.Edges, the set graphKey hashes.
func checkFragment(frag string, g *dynpdg.Graph, root dynpdg.NodeID, depth int) error {
	in := make([][]*dynpdg.Edge, len(g.Nodes))
	for _, e := range g.Edges {
		if e.Kind != dynpdg.EdgeFlow {
			in[e.To] = append(in[e.To], e)
		}
	}
	lines := strings.Split(strings.TrimSuffix(frag, "\n"), "\n")
	seen := map[dynpdg.NodeID]bool{}
	pos := 0
	var walk func(id dynpdg.NodeID, d int, via string) error
	walk = func(id dynpdg.NodeID, d int, via string) error {
		if want := fragmentLine(g, id, d, via); pos >= len(lines) || lines[pos] != want {
			return fmt.Errorf("fragment line %d: want %q", pos+1, want)
		}
		pos++
		if d == depth || seen[id] {
			return nil
		}
		seen[id] = true
		left := append([]*dynpdg.Edge(nil), in[id]...)
		for len(left) > 0 {
			k := -1
			for j, e := range left {
				if pos < len(lines) && lines[pos] == fragmentLine(g, e.From, d+1, e.Kind.String()) {
					k = j
					break
				}
			}
			if k < 0 {
				return fmt.Errorf("fragment line %d: not one of n%d's %d remaining dependences", pos+1, id, len(left))
			}
			e := left[k]
			left = append(left[:k], left[k+1:]...)
			if err := walk(e.From, d+1, e.Kind.String()); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0, ""); err != nil {
		return err
	}
	if pos != len(lines) {
		return fmt.Errorf("fragment has %d lines, the graph renders %d", len(lines), pos)
	}
	return nil
}

// fragmentLine is RenderFragment's line for node id at depth d, reached
// through an edge of kind via ("" at the root).
func fragmentLine(g *dynpdg.Graph, id dynpdg.NodeID, d int, via string) string {
	n := g.Nodes[id]
	var sb strings.Builder
	sb.WriteString(strings.Repeat("  ", d))
	if via != "" {
		fmt.Fprintf(&sb, "<-%s- ", via)
	}
	fmt.Fprintf(&sb, "n%d [%s]", n.ID, n.Label)
	if n.Stmt != ast.NoStmt {
		fmt.Fprintf(&sb, " s%d", n.Stmt)
	}
	if n.HasValue {
		fmt.Fprintf(&sb, " = %d", n.Value)
	}
	return sb.String()
}

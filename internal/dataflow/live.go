package dataflow

import (
	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/cfg"
)

// Liveness is the result of live-variable analysis: for each CFG node, the
// variables whose current values may still be read on some path onward.
//
// PPD uses it to trim loop e-block postlogs (§5.4's sizing concern): a
// local the loop defines but nothing reads afterwards need not be logged —
// substitution of the loop's postlog only has to restore values the
// continuation can observe.
type Liveness struct {
	Space *Space
	Graph *cfg.Graph

	// In[n] = live before n executes; Out[n] = live after.
	In  []*bitset.Set
	Out []*bitset.Set
}

// ComputeLiveness runs the standard backward may-analysis over the
// statement-level CFG with the given UseDef facts.
func ComputeLiveness(space *Space, g *cfg.Graph, uds map[ast.StmtID]*UseDef) *Liveness {
	n := len(g.Nodes)
	lv := &Liveness{
		Space: space,
		Graph: g,
		In:    make([]*bitset.Set, n),
		Out:   make([]*bitset.Set, n),
	}
	sets := bitset.NewSlab(space.Size(), 2*n+1)
	for i := 0; i < n; i++ {
		lv.In[i] = sets.New()
		lv.Out[i] = sets.New()
	}

	use := func(id cfg.NodeID) *bitset.Set {
		if st := g.Nodes[id].Stmt; st != nil {
			if ud, ok := uds[st.ID()]; ok {
				return ud.Use
			}
		}
		return nil
	}
	// A node's strong kills: only definite (killing) defs remove liveness;
	// may-defs (array element writes, callee effects) do not.
	kill := func(id cfg.NodeID) *bitset.Set {
		if st := g.Nodes[id].Stmt; st != nil {
			if ud, ok := uds[st.ID()]; ok {
				return ud.Kill
			}
		}
		return nil
	}

	changed := true
	tmp := sets.New()
	for changed {
		changed = false
		// Reverse iteration converges faster for a backward analysis.
		for i := n - 1; i >= 0; i-- {
			node := g.Nodes[i]
			out := lv.Out[i]
			for _, s := range node.Succs {
				out.UnionWith(lv.In[s])
			}
			tmp.Copy(out)
			if k := kill(node.ID); k != nil {
				tmp.DifferenceWith(k)
			}
			if u := use(node.ID); u != nil {
				tmp.UnionWith(u)
			}
			if !tmp.Equal(lv.In[i]) {
				lv.In[i].Copy(tmp)
				changed = true
			}
		}
	}
	return lv
}

// LiveBefore returns the variables live immediately before node n.
func (lv *Liveness) LiveBefore(n cfg.NodeID) *bitset.Set { return lv.In[n] }

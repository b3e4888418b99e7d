package dataflow

import (
	"sort"

	"ppd/internal/ast"
	"ppd/internal/bitset"
	"ppd/internal/cfg"
)

// DefSite is one definition point: CFG node n defining variable v (space
// index). The ENTRY node defines every parameter and every global,
// representing the values flowing in at function entry — exactly what the
// paper's prelog captures.
type DefSite struct {
	Node cfg.NodeID
	Var  int
}

// Reaching is the result of reaching-definition analysis for one function.
type Reaching struct {
	Space *Space
	Graph *cfg.Graph
	Sites []DefSite // dense site numbering, grouped by node in node order

	// first[n] is node n's first site: its sites are Sites[first[n]:first[n+1]],
	// in increasing variable order.
	first []int
	// defsOfVar[v] = bitset over sites that define v (used for kills).
	defsOfVar []*bitset.Set

	In  []*bitset.Set // per node, over sites
	Out []*bitset.Set

	UD map[ast.StmtID]*UseDef
}

// ComputeReaching runs reaching definitions over the function's CFG, with
// the given per-statement UseDef facts (already widened by call effects if
// interprocedural precision is wanted).
func ComputeReaching(space *Space, g *cfg.Graph, uds map[ast.StmtID]*UseDef) *Reaching {
	r := &Reaching{Space: space, Graph: g, UD: uds}

	// Enumerate def sites, node by node. ENTRY defines params and globals,
	// each statement node the variables of its Def set.
	nodeUD := make([]*UseDef, len(g.Nodes))
	nSites := len(space.Fn.Params) + space.Info.NumGlobals()
	for _, n := range g.Nodes {
		if n.Stmt == nil {
			continue
		}
		if ud := uds[n.Stmt.ID()]; ud != nil {
			nodeUD[n.ID] = ud
			nSites += ud.Def.Count()
		}
	}
	r.Sites = make([]DefSite, 0, nSites)
	r.first = make([]int, len(g.Nodes)+1)
	for _, n := range g.Nodes {
		r.first[n.ID] = len(r.Sites)
		if n.ID == cfg.EntryNode {
			for _, p := range space.Fn.Params {
				r.Sites = append(r.Sites, DefSite{Node: n.ID, Var: space.Index(p)})
			}
			for gid := 0; gid < space.Info.NumGlobals(); gid++ {
				r.Sites = append(r.Sites, DefSite{Node: n.ID, Var: space.GlobalIndex(gid)})
			}
		} else if ud := nodeUD[n.ID]; ud != nil {
			ud.Def.ForEach(func(v int) { r.Sites = append(r.Sites, DefSite{Node: n.ID, Var: v}) })
		}
	}
	r.first[len(g.Nodes)] = len(r.Sites)

	// The result's sets come from one slab; GEN, KILL and the fixpoint's
	// scratch set from another, which dies with this call.
	kept := bitset.NewSlab(nSites, space.Size()+2*len(g.Nodes))
	scratch := bitset.NewSlab(nSites, 2*len(g.Nodes)+1)
	r.defsOfVar = make([]*bitset.Set, space.Size())
	for v := range r.defsOfVar {
		r.defsOfVar[v] = kept.New()
	}
	for i, ds := range r.Sites {
		r.defsOfVar[ds.Var].Add(i)
	}

	// GEN and KILL per node: a node generates all its sites, and kills
	// every other site of each variable it defines strongly.
	gen := make([]*bitset.Set, len(g.Nodes))
	kill := make([]*bitset.Set, len(g.Nodes))
	for _, n := range g.Nodes {
		gen[n.ID], kill[n.ID] = scratch.New(), scratch.New()
		for site := r.first[n.ID]; site < r.first[n.ID+1]; site++ {
			gen[n.ID].Add(site)
		}
		ud := nodeUD[n.ID]
		if ud == nil {
			continue
		}
		k := kill[n.ID]
		ud.Kill.ForEach(func(v int) {
			k.UnionWith(r.defsOfVar[v])
			// A statement does not kill its own definition.
			if site := r.siteOf(n.ID, v); site >= 0 {
				k.Remove(site)
			}
		})
	}

	// Iterative fixpoint, forward, union confluence.
	r.In = make([]*bitset.Set, len(g.Nodes))
	r.Out = make([]*bitset.Set, len(g.Nodes))
	for i := range g.Nodes {
		r.In[i] = kept.New()
		r.Out[i] = kept.New()
	}
	changed := true
	tmp := scratch.New()
	for changed {
		changed = false
		for _, n := range g.Nodes {
			in := r.In[n.ID]
			for _, p := range n.Preds {
				in.UnionWith(r.Out[p])
			}
			tmp.Copy(in)
			tmp.DifferenceWith(kill[n.ID])
			tmp.UnionWith(gen[n.ID])
			if !tmp.Equal(r.Out[n.ID]) {
				r.Out[n.ID].Copy(tmp)
				changed = true
			}
		}
	}
	return r
}

// siteOf returns the site at which node n defines v, or -1.
func (r *Reaching) siteOf(n cfg.NodeID, v int) int {
	lo, hi := r.first[n], r.first[n+1]
	i := lo + sort.Search(hi-lo, func(i int) bool { return r.Sites[lo+i].Var >= v })
	if i < hi && r.Sites[i].Var == v {
		return i
	}
	return -1
}

// ReachingDefsOf returns the definition sites of variable v that reach node
// n (i.e. may supply the value a use of v at n observes).
func (r *Reaching) ReachingDefsOf(n cfg.NodeID, v int) []DefSite {
	var out []DefSite
	in := r.In[n]
	r.defsOfVar[v].ForEach(func(site int) {
		if in.Has(site) {
			out = append(out, r.Sites[site])
		}
	})
	return out
}

// DUEdge is one def-use chain link: the definition at Def reaches the use of
// Var at the Use node.
type DUEdge struct {
	Def DefSite
	Use cfg.NodeID
	Var int
}

// DefUseChains materializes all def-use edges of the function. These become
// the data-dependence edges of the static PDG.
func (r *Reaching) DefUseChains() []DUEdge {
	var out []DUEdge
	var uses, sites []int
	for _, n := range r.Graph.Nodes {
		if n.Stmt == nil {
			continue
		}
		ud := r.UD[n.Stmt.ID()]
		if ud == nil {
			continue
		}
		uses = ud.Use.AppendTo(uses)
		for _, v := range uses {
			sites = bitset.AppendIntersection(sites[:0], r.defsOfVar[v], r.In[n.ID])
			for _, site := range sites {
				out = append(out, DUEdge{Def: r.Sites[site], Use: n.ID, Var: v})
			}
		}
	}
	return out
}

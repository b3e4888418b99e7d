package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ppd/internal/bitset"
)

// procClass is one may-happen-in-parallel unit: the process(es) entered at
// one spawn target (or main). Its read/write sets are the interprocedural
// MOD/REF closures of the entry function over plain calls only — exactly
// the shared variables any dynamic internal edge of such a process can
// touch, so the conflict matrix over-approximates every dynamic conflict.
type procClass struct {
	Entry string
	// Many marks classes that may have more than one instance over a run
	// (several spawn sites, a spawn in a loop, or a spawning container
	// that itself runs more than once). A Many class conflicts with
	// itself.
	Many   bool
	Reads  *bitset.Set // shared GlobalIDs possibly read
	Writes *bitset.Set // shared GlobalIDs possibly written
}

// ConflictPair records that classes A and B (indices into Classes; A==B
// for a self-conflicting Many class) may race on Vars.
type ConflictPair struct {
	A, B int
	Vars *bitset.Set
}

// LockGuard records one variable dropped from the conflict mask because
// the lockset analysis proved every reachable access holds semaphore Sem
// (both are GlobalIDs).
type LockGuard struct {
	Gid int
	Sem int
}

// ConflictMatrix is the racecand pass's product: per-variable static
// conflict facts plus the projection the dynamic detectors consume.
type ConflictMatrix struct {
	NumGlobals int
	Classes    []procClass
	Pairs      []ConflictPair
	// Guarded lists the variables the lockset analysis pruned from the
	// mask (and from Pairs), with the semaphore that guards each.
	Guarded []LockGuard

	mask *bitset.Set
}

// Mask returns the set of GlobalIDs with at least one static conflict —
// the variables whose detector buckets must be scanned. A nil matrix (no
// analysis run) returns nil, which the detectors treat as "scan all".
func (m *ConflictMatrix) Mask() *bitset.Set {
	if m == nil {
		return nil
	}
	return m.mask
}

// NumCandidates counts variables with at least one static conflict.
func (m *ConflictMatrix) NumCandidates() int {
	if m == nil {
		return 0
	}
	return m.mask.Count()
}

// String renders the matrix for dumps: one line per class, one per pair.
func (m *ConflictMatrix) String() string {
	if m == nil {
		return "no conflict matrix\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "conflict matrix: %d class(es), %d candidate variable(s)\n",
		len(m.Classes), m.NumCandidates())
	for _, cl := range m.Classes {
		multi := ""
		if cl.Many {
			multi = " (multiple instances)"
		}
		fmt.Fprintf(&sb, "  class %s%s: reads %s writes %s\n", cl.Entry, multi, cl.Reads, cl.Writes)
	}
	for _, p := range m.Pairs {
		fmt.Fprintf(&sb, "  conflict %s x %s on %s\n", m.Classes[p.A].Entry, m.Classes[p.B].Entry, p.Vars)
	}
	for _, g := range m.Guarded {
		fmt.Fprintf(&sb, "  pruned var %d (lock-guarded by sem %d)\n", g.Gid, g.Sem)
	}
	return sb.String()
}

// buildConflicts computes the process classes and their pairwise shared-
// variable conflicts.
func buildConflicts(c *context) *ConflictMatrix {
	m := &ConflictMatrix{
		NumGlobals: c.info.NumGlobals(),
		mask:       bitset.New(c.info.NumGlobals()),
	}

	// Classes: main plus every spawn target, in declaration order so the
	// matrix (and the diagnostics derived from it) are deterministic.
	targets := c.p.Inter.SpawnTargets()
	mainName := c.info.Main.Name()
	for _, fi := range c.info.FuncList {
		fn := fi.Name()
		if fn != mainName && !targets[fn] {
			continue
		}
		sum := c.p.Inter.Summaries[fn]
		m.Classes = append(m.Classes, procClass{
			Entry:  fn,
			Many:   fn != mainName && !c.singleInstance(fn),
			Reads:  c.sharedOnly(sum.Used),
			Writes: c.sharedOnly(sum.Defined),
		})
	}

	// Pairwise (and Many-self) conflicts: variable v is a candidate when
	// one side may write it and the other may access it at all —
	// Definition 6.3 lifted from dynamic edges to process classes.
	for i := range m.Classes {
		for j := i; j < len(m.Classes); j++ {
			a, b := &m.Classes[i], &m.Classes[j]
			if i == j {
				if !a.Many {
					continue
				}
				// Two instances of the same class: both may run the same
				// writes, so any written variable is a self-conflict.
				if !a.Writes.IsEmpty() {
					m.Pairs = append(m.Pairs, ConflictPair{A: i, B: i, Vars: a.Writes.Clone()})
					m.mask.UnionWith(a.Writes)
				}
				continue
			}
			vars := bitset.New(m.NumGlobals)
			if inter, ok := bitset.Intersection(a.Writes, b.Writes); ok {
				vars.UnionWith(inter)
			}
			if inter, ok := bitset.Intersection(a.Writes, b.Reads); ok {
				vars.UnionWith(inter)
			}
			if inter, ok := bitset.Intersection(a.Reads, b.Writes); ok {
				vars.UnionWith(inter)
			}
			if !vars.IsEmpty() {
				m.Pairs = append(m.Pairs, ConflictPair{A: i, B: j, Vars: vars})
				m.mask.UnionWith(vars)
			}
		}
	}

	// Lockset sharpening: a variable whose every reachable access provably
	// holds a common lock-like semaphore cannot be accessed concurrently
	// (absint/lockset.go carries the argument), so its detector buckets are
	// provably empty — drop it from the pairs and the mask. FromWire
	// rebuilds the mask as the union of pair variable sets, so pruning both
	// keeps decoded matrices consistent with fresh ones.
	for _, g := range c.absfacts().Guarded {
		if !m.mask.Has(g.Gid) {
			continue
		}
		m.Guarded = append(m.Guarded, LockGuard{Gid: g.Gid, Sem: g.Sem})
		m.mask.Remove(g.Gid)
		kept := m.Pairs[:0]
		for _, p := range m.Pairs {
			p.Vars.Remove(g.Gid)
			if !p.Vars.IsEmpty() {
				kept = append(kept, p)
			}
		}
		m.Pairs = kept
	}
	return m
}

// racecandPass reports one diagnostic per statically-conflicting shared
// variable and stows the conflict matrix on the context for Analyze (and,
// through it, the pruned dynamic detectors).
func racecandPass(c *context) []*Diagnostic {
	m := buildConflicts(c)
	c.conflicts = m

	var out []*Diagnostic
	m.mask.ForEach(func(gid int) {
		// Roles: every class that appears in some conflicting pair on gid,
		// labelled by how it can touch the variable.
		involved := make(map[int]bool)
		for _, p := range m.Pairs {
			if p.Vars.Has(gid) {
				involved[p.A] = true
				involved[p.B] = true
			}
		}
		var roles []string
		var related []Related
		for i := range m.Classes {
			if !involved[i] {
				continue
			}
			cl := &m.Classes[i]
			role := "reads"
			write := false
			if cl.Writes.Has(gid) {
				role = "writes"
				write = true
			}
			multi := ""
			if cl.Many {
				multi = " (multiple instances)"
			}
			roles = append(roles, fmt.Sprintf("%s %s%s", cl.Entry, role, multi))
			if fn, st := c.accessSite(cl.Entry, gid, write); st != nil {
				verb := "read"
				if write {
					verb = "write"
				}
				related = append(related, Related{
					Pos:     c.pos(st.Pos()),
					Message: fmt.Sprintf("%s of '%s' in %s", verb, c.globalName(gid), fn),
				})
			}
		}
		out = append(out, &Diagnostic{
			Code: "race-candidate",
			Sev:  Warning,
			Pos:  c.declPos(gid),
			Message: fmt.Sprintf("static race candidate: shared variable '%s' may be accessed by concurrent processes without ordering (%s)",
				c.globalName(gid), strings.Join(roles, "; ")),
			Related: related,
		})
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos.Line < out[j].Pos.Line })
	return out
}

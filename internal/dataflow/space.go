// Package dataflow implements the classic analyses the paper leans on
// (§1: "data flow analysis commonly used in optimizing compilers"):
// per-statement USE/DEF sets, reaching definitions, and def-use chains,
// all over bitsets.
//
// Each function gets a variable Space combining its frame slots with the
// program's globals, so one bitset index identifies any variable the
// function can touch. Array elements are folded into their array (the
// standard conservative treatment; the paper's §7 leaves finer aliasing to
// future work).
package dataflow

import (
	"ppd/internal/bitset"
	"ppd/internal/sem"
)

// Space is the variable index space of one function: local slots first
// (0..NumSlots-1), then all globals (NumSlots..NumSlots+NumGlobals-1).
// Semaphores and channels occupy global indices but never appear in USE/DEF
// sets; keeping the numbering uniform lets every analysis share one space.
type Space struct {
	Fn   *sem.FuncInfo
	Info *sem.Info
}

// NewSpace returns the variable space of fn.
func NewSpace(info *sem.Info, fn *sem.FuncInfo) *Space {
	return &Space{Fn: fn, Info: info}
}

// Size returns the number of variable indices.
func (s *Space) Size() int { return s.Fn.NumSlots + s.Info.NumGlobals() }

// Index returns the space index of a resolved symbol, or -1 if the symbol is
// not a variable in this function's space.
func (s *Space) Index(sym *sem.Symbol) int {
	switch sym.Kind {
	case sem.SymParam, sem.SymLocal:
		return sym.Slot
	case sem.SymGlobal, sem.SymSem, sem.SymChan:
		return s.Fn.NumSlots + sym.GlobalID
	}
	return -1
}

// GlobalIndex returns the space index of the global with the given ID.
func (s *Space) GlobalIndex(globalID int) int { return s.Fn.NumSlots + globalID }

// IsGlobal reports whether idx refers to a global.
func (s *Space) IsGlobal(idx int) bool { return idx >= s.Fn.NumSlots }

// GlobalID returns the GlobalID for a global index (panics semantics-free:
// callers must check IsGlobal first).
func (s *Space) GlobalID(idx int) int { return idx - s.Fn.NumSlots }

// Symbol returns the symbol at a space index.
func (s *Space) Symbol(idx int) *sem.Symbol {
	if s.IsGlobal(idx) {
		return s.Info.Globals[s.GlobalID(idx)]
	}
	return s.Fn.Locals[idx]
}

// Name returns the variable name at a space index.
func (s *Space) Name(idx int) string { return s.Symbol(idx).Name }

// NewSet returns an empty bitset sized to the space.
func (s *Space) NewSet() *bitset.Set { return bitset.New(s.Size()) }

// GlobalsOnly extracts the global portion of a space-set as a set over
// GlobalIDs (used when publishing USED/DEFINED sets interprocedurally).
func (s *Space) GlobalsOnly(set *bitset.Set) *bitset.Set {
	out := bitset.New(s.Info.NumGlobals())
	set.ForEach(func(i int) {
		if s.IsGlobal(i) {
			out.Add(s.GlobalID(i))
		}
	})
	return out
}

// AddGlobals adds the global portion of a space-set to dst, a set over
// GlobalIDs, keeping only the globals mask holds when mask is non-nil:
// GlobalsOnly without building a set.
func (s *Space) AddGlobals(dst, set, mask *bitset.Set) {
	set.ForEach(func(i int) {
		if g := s.GlobalID(i); s.IsGlobal(i) && (mask == nil || mask.Has(g)) {
			dst.Add(g)
		}
	})
}

// InjectGlobals adds a GlobalID-set into a space-set.
func (s *Space) InjectGlobals(dst *bitset.Set, globals *bitset.Set) {
	globals.ForEach(func(g int) { dst.Add(s.GlobalIndex(g)) })
}

package analysis

import "ppd/internal/bitset"

// The wire types flatten a ConflictMatrix into exported, codec-friendly
// slices so the progdb artifact cache can persist vet results without
// reaching into this package's unexported representation. FromWire rebuilds
// the matrix — including the detector mask, which is by construction the
// union of every pair's variable set — so a decoded matrix answers Mask /
// NumCandidates / String identically to the original.

// ConflictWire is the serializable shape of a ConflictMatrix.
type ConflictWire struct {
	NumGlobals int
	Classes    []ClassWire
	Pairs      []PairWire
	Guarded    []LockGuard
}

// ClassWire is one process class with its read/write sets as element lists.
type ClassWire struct {
	Entry  string
	Many   bool
	Reads  []int
	Writes []int
}

// PairWire is one conflicting class pair with its variable set.
type PairWire struct {
	A, B int
	Vars []int
}

// Wire flattens the matrix; a nil matrix yields nil.
func (m *ConflictMatrix) Wire() *ConflictWire {
	if m == nil {
		return nil
	}
	w := &ConflictWire{NumGlobals: m.NumGlobals}
	for _, cl := range m.Classes {
		w.Classes = append(w.Classes, ClassWire{
			Entry:  cl.Entry,
			Many:   cl.Many,
			Reads:  cl.Reads.Elems(),
			Writes: cl.Writes.Elems(),
		})
	}
	for _, p := range m.Pairs {
		w.Pairs = append(w.Pairs, PairWire{A: p.A, B: p.B, Vars: p.Vars.Elems()})
	}
	w.Guarded = append(w.Guarded, m.Guarded...)
	return w
}

// FromWire reconstructs a ConflictMatrix; a nil wire yields nil.
func FromWire(w *ConflictWire) *ConflictMatrix {
	if w == nil {
		return nil
	}
	m := &ConflictMatrix{
		NumGlobals: w.NumGlobals,
		mask:       bitset.New(w.NumGlobals),
	}
	for _, cl := range w.Classes {
		m.Classes = append(m.Classes, procClass{
			Entry:  cl.Entry,
			Many:   cl.Many,
			Reads:  bitset.FromSlice(w.NumGlobals, cl.Reads),
			Writes: bitset.FromSlice(w.NumGlobals, cl.Writes),
		})
	}
	for _, p := range w.Pairs {
		vars := bitset.FromSlice(w.NumGlobals, p.Vars)
		m.Pairs = append(m.Pairs, ConflictPair{A: p.A, B: p.B, Vars: vars})
		m.mask.UnionWith(vars)
	}
	m.Guarded = append(m.Guarded, w.Guarded...)
	return m
}

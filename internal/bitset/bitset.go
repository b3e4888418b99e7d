// Package bitset provides dense bit sets over small integer universes.
//
// The paper's conclusion singles out set representation as a practical
// concern: "using bit-mask representations for sets of variables (as opposed
// to a list structure) can have a large payoff". Set is that bit-mask
// representation; the sorted-list baseline (ListSet, in listset_test.go)
// lives with the benchmarks that measure the payoff (experiment E9).
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a dense bitset. The zero value is an empty set of capacity 0;
// use New for a set sized to a universe.
type Set struct {
	words []uint64
	n     int // universe size
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Init makes s an empty set over [0, n) backed by words, which must be
// zero and hold (n+63)/64 words: a builder making many sets carves their
// words from one slice.
func (s *Set) Init(words []uint64, n int) { s.words, s.n = words, n }

// Slab hands out sets over one universe, carving them from shared backing
// arrays a chunk at a time: a pass that makes many sets of one size pays
// two allocations per chunk instead of two per set. Every set of a chunk
// keeps the whole chunk alive, so a slab suits sets that share a lifetime.
// The zero Slab is not usable; make one with NewSlab.
type Slab struct {
	n, nw int
	chunk int // sets per chunk
	sets  []Set
	words []uint64
}

// NewSlab returns a slab of sets over [0, n) whose first chunk holds hint
// sets; later chunks hold as many again.
func NewSlab(n, hint int) *Slab {
	return &Slab{n: n, nw: (n + wordBits - 1) / wordBits, chunk: max(hint, 1)}
}

// New returns an empty set over the slab's universe.
func (sl *Slab) New() *Set {
	if len(sl.sets) == 0 {
		sl.sets = make([]Set, sl.chunk)
		sl.words = make([]uint64, sl.chunk*sl.nw)
	}
	s := &sl.sets[0]
	s.Init(sl.words[:sl.nw:sl.nw], sl.n)
	sl.sets, sl.words = sl.sets[1:], sl.words[sl.nw:]
	return s
}

// Clone returns a copy of o, which must be over the slab's universe.
func (sl *Slab) Clone(o *Set) *Set {
	s := sl.New()
	copy(s.words, o.words)
	return s
}

// FromSlice returns a set over [0, n) containing the given elements.
func FromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// Add inserts i.
func (s *Set) Add(i int) { s.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Remove deletes i.
func (s *Set) Remove(i int) { s.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Has reports whether i is a member.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Clear empties the set in place.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of members.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no members.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with o (universes must match).
func (s *Set) Copy(o *Set) {
	copy(s.words, o.words)
}

// UnionWith adds every member of o to s and reports whether s changed.
func (s *Set) UnionWith(o *Set) bool {
	changed := false
	for i, w := range o.words {
		nw := s.words[i] | w
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith removes from s every element not in o.
func (s *Set) IntersectWith(o *Set) {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
}

// DifferenceWith removes from s every element of o.
func (s *Set) DifferenceWith(o *Set) {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
}

// Intersects reports whether s and o share any element. This is the inner
// loop of race detection (Def 6.3: conflict = non-empty intersection of
// READ/WRITE sets), so it must not allocate.
func (s *Set) Intersects(o *Set) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// AppendIntersection appends the members of a ∩ b to dst in increasing
// order, word by word, and returns the result; dst is unchanged when the
// sets are disjoint. This is race classification's inner step (Def 6.3:
// the variables two edges conflict on), so it builds no set.
func AppendIntersection(dst []int, a, b *Set) []int {
	n := min(len(a.words), len(b.words))
	for wi := 0; wi < n; wi++ {
		for w := a.words[wi] & b.words[wi]; w != 0; w &= w - 1 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// Intersection returns a ∩ b and whether it is non-empty, in one pass over
// the words. Race detection's checkPair previously probed with Intersects
// and then recomputed the same AND via Clone+IntersectWith; this fuses the
// two, and allocates nothing when the intersection is empty (the common
// case on race-free executions).
func Intersection(a, b *Set) (*Set, bool) {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	var out *Set
	for i := 0; i < n; i++ {
		w := a.words[i] & b.words[i]
		if w == 0 {
			continue
		}
		if out == nil {
			universe := a.n
			if b.n < universe {
				universe = b.n
			}
			out = New(universe)
		}
		out.words[i] = w
	}
	return out, out != nil
}

// Equal reports whether s and o have identical membership.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Elems returns the members in increasing order.
func (s *Set) Elems() []int {
	var out []int
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// AppendTo appends the members in increasing order to dst[:0] and returns
// the result, letting hot callers reuse one slice's capacity across calls
// instead of allocating per Elems call.
func (s *Set) AppendTo(dst []int) []int {
	dst = dst[:0]
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls f for each member in increasing order.
func (s *Set) ForEach(f func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as "{1,5,9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}

package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := New(130)
	if !s.IsEmpty() {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(129)
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Has(i) {
			t.Errorf("Has(%d) = false, want true", i)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Error("spurious membership")
	}
	if got := s.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	s.Remove(63)
	if s.Has(63) {
		t.Error("Remove(63) failed")
	}
	if got, want := s.String(), "{0,64,129}"; got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}

func TestSetOutOfRangeHas(t *testing.T) {
	s := New(10)
	if s.Has(-1) || s.Has(10) || s.Has(1000) {
		t.Error("out-of-range Has must be false")
	}
}

func TestSetUnionIntersectDifference(t *testing.T) {
	a := FromSlice(100, []int{1, 2, 3, 64})
	b := FromSlice(100, []int{3, 4, 64, 99})

	u := a.Clone()
	if changed := u.UnionWith(b); !changed {
		t.Error("union should report change")
	}
	if got := u.Count(); got != 6 {
		t.Errorf("union count = %d, want 6", got)
	}
	if changed := u.UnionWith(b); changed {
		t.Error("second union should not change")
	}

	i := a.Clone()
	i.IntersectWith(b)
	if got, want := i.String(), "{3,64}"; got != want {
		t.Errorf("intersect = %s, want %s", got, want)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if got, want := d.String(), "{1,2}"; got != want {
		t.Errorf("difference = %s, want %s", got, want)
	}
}

func TestSetIntersects(t *testing.T) {
	a := FromSlice(200, []int{10, 150})
	b := FromSlice(200, []int{11, 151})
	if a.Intersects(b) {
		t.Error("disjoint sets reported intersecting")
	}
	b.Add(150)
	if !a.Intersects(b) {
		t.Error("intersecting sets reported disjoint")
	}
}

func TestSetElemsAndForEach(t *testing.T) {
	want := []int{0, 5, 63, 64, 65, 127}
	s := FromSlice(128, want)
	got := s.Elems()
	if len(got) != len(want) {
		t.Fatalf("Elems = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	var fe []int
	s.ForEach(func(i int) { fe = append(fe, i) })
	for i := range want {
		if fe[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", fe, want)
		}
	}
}

func TestSetEqualClone(t *testing.T) {
	a := FromSlice(70, []int{1, 69})
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Add(2)
	if a.Equal(b) {
		t.Error("mutated clone still equal")
	}
	if a.Has(2) {
		t.Error("clone shares storage with original")
	}
}

// Property: Set and ListSet agree on membership, union, and intersection
// for arbitrary inputs — the two representations must be semantically
// interchangeable for the E9 ablation to be meaningful.
func TestSetMatchesListSetProperty(t *testing.T) {
	const universe = 256
	f := func(xs, ys []uint8) bool {
		ax, ay := make([]int, len(xs)), make([]int, len(ys))
		for i, v := range xs {
			ax[i] = int(v)
		}
		for i, v := range ys {
			ay[i] = int(v)
		}
		bs1, bs2 := FromSlice(universe, ax), FromSlice(universe, ay)
		ls1, ls2 := ListFromSlice(ax), ListFromSlice(ay)

		if bs1.Intersects(bs2) != ls1.Intersects(ls2) {
			return false
		}
		if bs1.Count() != ls1.Count() {
			return false
		}
		u1 := bs1.Clone()
		u1.UnionWith(bs2)
		u2 := ls1.Clone()
		u2.UnionWith(ls2)
		if u1.Count() != u2.Count() {
			return false
		}
		for _, e := range u2.Elems() {
			if !u1.Has(e) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestListSetBasics(t *testing.T) {
	s := NewList()
	for _, v := range []int{5, 1, 5, 3} {
		s.Add(v)
	}
	if got := s.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	e := s.Elems()
	for i, want := range []int{1, 3, 5} {
		if e[i] != want {
			t.Fatalf("Elems = %v", e)
		}
	}
	if !s.Has(3) || s.Has(2) {
		t.Error("membership wrong")
	}
}

func BenchmarkBitsetVsListUnion(b *testing.B) {
	const universe = 512
	rng := rand.New(rand.NewSource(1))
	elems := make([]int, 64)
	for i := range elems {
		elems[i] = rng.Intn(universe)
	}
	b.Run("bitset", func(b *testing.B) {
		x := FromSlice(universe, elems[:32])
		y := FromSlice(universe, elems[32:])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z := x.Clone()
			z.UnionWith(y)
		}
	})
	b.Run("list", func(b *testing.B) {
		x := ListFromSlice(elems[:32])
		y := ListFromSlice(elems[32:])
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z := x.Clone()
			z.UnionWith(y)
		}
	})
}

func BenchmarkBitsetVsListIntersects(b *testing.B) {
	const universe = 512
	rng := rand.New(rand.NewSource(2))
	mk := func(n int) ([]int, []int) {
		a := make([]int, n)
		c := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(universe / 2) // low half
			c[i] = universe/2 + rng.Intn(universe/2)
		}
		return a, c
	}
	ea, eb := mk(48)
	b.Run("bitset", func(b *testing.B) {
		x := FromSlice(universe, ea)
		y := FromSlice(universe, eb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if x.Intersects(y) {
				b.Fatal("unexpected intersection")
			}
		}
	})
	b.Run("list", func(b *testing.B) {
		x := ListFromSlice(ea)
		y := ListFromSlice(eb)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if x.Intersects(y) {
				b.Fatal("unexpected intersection")
			}
		}
	})
}

func TestIntersection(t *testing.T) {
	a := FromSlice(200, []int{1, 64, 65, 130, 199})
	b := FromSlice(200, []int{0, 64, 130, 131})
	inter, ok := Intersection(a, b)
	if !ok {
		t.Fatal("intersection reported empty")
	}
	if got := inter.Elems(); len(got) != 2 || got[0] != 64 || got[1] != 130 {
		t.Errorf("Intersection elems = %v, want [64 130]", got)
	}
	// Must agree with the two-step Clone+IntersectWith it replaces.
	ref := a.Clone()
	ref.IntersectWith(b)
	if !inter.Equal(ref) {
		t.Errorf("Intersection = %v, reference = %v", inter, ref)
	}

	// Disjoint sets: reported empty, nothing allocated.
	d := FromSlice(200, []int{2, 66, 132})
	if inter, ok := Intersection(a, d); ok || inter != nil {
		t.Errorf("disjoint Intersection = %v, %v; want nil, false", inter, ok)
	}

	// Mismatched universes take the smaller one.
	small := FromSlice(70, []int{64, 65})
	inter, ok = Intersection(a, small)
	if !ok || inter.Len() != 70 {
		t.Fatalf("mixed-universe Intersection = %v (len %d), ok=%v", inter, inter.Len(), ok)
	}
	if got := inter.Elems(); len(got) != 2 || got[0] != 64 || got[1] != 65 {
		t.Errorf("mixed-universe elems = %v, want [64 65]", got)
	}
}

func TestAppendIntersection(t *testing.T) {
	a := FromSlice(200, []int{1, 64, 65, 130, 199})
	b := FromSlice(200, []int{0, 64, 130, 131})
	got := AppendIntersection([]int{7}, a, b)
	if len(got) != 3 || got[0] != 7 || got[1] != 64 || got[2] != 130 {
		t.Errorf("AppendIntersection = %v, want [7 64 130]", got)
	}
	// Must agree with the two-step Clone+IntersectWith.
	ref := a.Clone()
	ref.IntersectWith(b)
	if !FromSlice(200, got[1:]).Equal(ref) {
		t.Errorf("AppendIntersection = %v, reference = %v", got[1:], ref)
	}

	// Disjoint sets: nothing appended, nothing allocated.
	d := FromSlice(200, []int{2, 66, 132})
	if got := AppendIntersection(nil, a, d); got != nil {
		t.Errorf("disjoint AppendIntersection = %v, want nil", got)
	}
	if n := testing.AllocsPerRun(10, func() { AppendIntersection(nil, a, d) }); n != 0 {
		t.Errorf("disjoint AppendIntersection allocates %v times", n)
	}

	// Mismatched universes stop at the smaller one.
	small := FromSlice(70, []int{64, 65})
	if got := AppendIntersection(nil, a, small); len(got) != 2 || got[0] != 64 || got[1] != 65 {
		t.Errorf("mixed-universe AppendIntersection = %v, want [64 65]", got)
	}

	// Init: a set over caller-owned words.
	var s Set
	words := make([]uint64, 4)
	s.Init(words[1:3], 100)
	s.Add(70)
	if !s.Has(70) || s.Len() != 100 || words[2] != 1<<6 {
		t.Errorf("Init set: Has(70)=%v Len=%d words=%v", s.Has(70), s.Len(), words)
	}
}

// BenchmarkBitsetVsListSets is E9: intersection and clone+union of two
// 48-element sets over a 512-variable universe, bitset vs. list.
func BenchmarkBitsetVsListSets(b *testing.B) {
	const universe = 512
	rng := rand.New(rand.NewSource(1))
	elems := make([]int, 96)
	for i := range elems {
		elems[i] = rng.Intn(universe)
	}
	bs1 := FromSlice(universe, elems[:48])
	bs2 := FromSlice(universe, elems[48:])
	ls1 := ListFromSlice(elems[:48])
	ls2 := ListFromSlice(elems[48:])
	b.Run("bitset-intersects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = bs1.Intersects(bs2)
		}
	})
	b.Run("list-intersects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ls1.Intersects(ls2)
		}
	})
	b.Run("bitset-union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z := bs1.Clone()
			z.UnionWith(bs2)
		}
	})
	b.Run("list-union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z := ls1.Clone()
			z.UnionWith(ls2)
		}
	})
}

// TestSlabSetsAreIndependent checks that sets carved from one slab, across
// chunk boundaries, never share words.
func TestSlabSetsAreIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 64, 130} {
		sl := NewSlab(n, 3)
		var sets []*Set
		for i := 0; i < 7; i++ {
			sets = append(sets, sl.New())
		}
		for i, s := range sets {
			if s.Len() != n || !s.IsEmpty() {
				t.Fatalf("n=%d set %d: Len %d, empty %v", n, i, s.Len(), s.IsEmpty())
			}
			if n > 0 {
				s.Add(i % n)
				s.Add(n - 1)
			}
		}
		for i, s := range sets {
			want := New(n)
			if n > 0 {
				want.Add(i % n)
				want.Add(n - 1)
			}
			if !s.Equal(want) {
				t.Errorf("n=%d set %d = %s, want %s", n, i, s, want)
			}
		}
		if n > 0 {
			c := sl.Clone(sets[1])
			c.Add(0)
			if !sets[1].Equal(FromSlice(n, []int{1 % n, n - 1})) || !c.Has(0) || !c.Has(n-1) {
				t.Errorf("n=%d: Clone shares words with its source", n)
			}
		}
	}
}

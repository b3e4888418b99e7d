// Package absint is a flow-sensitive, interprocedural abstract interpreter
// over the MPL CFG/dataflow layers. Its product domain combines intervals,
// constants, and nonzero facts for scalars (plus array-length/index bounds
// derived from them) with a must-held lockset domain (lockset.go). The
// engine (absint.go) runs a deterministic fixpoint — widening at loop heads,
// two narrowing sweeps, bottom for unreachable code — so the resulting
// Facts are byte-stable across runs.
//
// Three consumers cash the facts in: the divzero/bounds/deadbranch/lockset
// vet passes (internal/analysis), the fusion safety certificate that lets
// bytecode.FuseCert fuse proven-nonzero divisions and proven-in-bounds
// indexed windows, and the conflict-matrix sharpening that drops provably
// lock-guarded variables from the dynamic race detectors' mask.
package absint

import "math"

// Infinite interval endpoints. The domain saturates into these; MinInt64
// means "no lower bound" and MaxInt64 "no upper bound".
const (
	NegInf = math.MinInt64
	PosInf = math.MaxInt64
)

// Val is one scalar's abstract value: an interval [Lo, Hi] (saturating at
// NegInf/PosInf) plus an explicit nonzero flag for values whose interval
// spans zero but which a guard proved nonzero (x != 0, bare boolean truth).
// Bot marks the unreachable value ⊥.
type Val struct {
	Bot    bool
	Lo, Hi int64
	NZ     bool
}

// Top returns the unconstrained value ⊤.
func Top() Val { return Val{Lo: NegInf, Hi: PosInf} }

// Bottom returns ⊥.
func Bottom() Val { return Val{Bot: true} }

// Const returns the singleton [k, k].
func Const(k int64) Val { return Val{Lo: k, Hi: k} }

// Range returns the interval [lo, hi].
func Range(lo, hi int64) Val { return norm(Val{Lo: lo, Hi: hi}) }

// norm canonicalizes: an empty interval is ⊥, and the NZ flag tightens a
// bound touching zero (so NZ never needs consulting once bounds exclude 0).
func norm(v Val) Val {
	if v.Bot {
		return Bottom()
	}
	if v.NZ {
		if v.Lo == 0 {
			v.Lo = 1
		}
		if v.Hi == 0 {
			v.Hi = -1
		}
		if v.Lo > 0 || v.Hi < 0 {
			v.NZ = false // bounds carry the fact now
		}
	}
	if v.Lo > v.Hi {
		return Bottom()
	}
	return v
}

// Bounded reports whether v is reachable and has at least one finite bound.
func (v Val) Bounded() bool { return !v.Bot && (v.Lo != NegInf || v.Hi != PosInf) }

// Nonzero reports whether v provably cannot be zero.
func (v Val) Nonzero() bool { return !v.Bot && (v.NZ || v.Lo > 0 || v.Hi < 0) }

// IsZero reports whether v is provably the constant 0.
func (v Val) IsZero() bool { return !v.Bot && v.Lo == 0 && v.Hi == 0 }

// ConstVal returns the singleton value, if v is one.
func (v Val) ConstVal() (int64, bool) {
	if !v.Bot && v.Lo == v.Hi {
		return v.Lo, true
	}
	return 0, false
}

// Join is the least upper bound.
func Join(a, b Val) Val {
	if a.Bot {
		return b
	}
	if b.Bot {
		return a
	}
	return norm(Val{
		Lo: minI(a.Lo, b.Lo),
		Hi: maxI(a.Hi, b.Hi),
		NZ: a.Nonzero() && b.Nonzero(),
	})
}

// Meet is the greatest lower bound (⊥ when the intervals are disjoint).
func Meet(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	return norm(Val{
		Lo: maxI(a.Lo, b.Lo),
		Hi: minI(a.Hi, b.Hi),
		NZ: a.NZ || b.NZ,
	})
}

// Widen extrapolates an unstable bound through the threshold chain
// {0, ±∞}: a sinking lower bound stops at 0 if still nonnegative, else
// falls to -∞; dually for the upper bound. The chain is length 2 per
// side, so widening terminates in a handful of steps.
func Widen(old, new Val) Val {
	if old.Bot {
		return new
	}
	if new.Bot {
		return old
	}
	w := Val{Lo: old.Lo, Hi: old.Hi, NZ: old.Nonzero() && new.Nonzero()}
	if new.Lo < old.Lo {
		if new.Lo >= 0 {
			w.Lo = 0
		} else {
			w.Lo = NegInf
		}
	}
	if new.Hi > old.Hi {
		if new.Hi <= 0 {
			w.Hi = 0
		} else {
			w.Hi = PosInf
		}
	}
	return norm(w)
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------- saturating ops

func negSat(a int64) int64 {
	switch a {
	case NegInf:
		return PosInf
	case PosInf:
		return NegInf
	}
	return -a
}

func addSat(a, b int64) int64 {
	if a == NegInf || b == NegInf {
		return NegInf
	}
	if a == PosInf || b == PosInf {
		return PosInf
	}
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return PosInf
	}
	if a < 0 && b < 0 && s >= 0 {
		return NegInf
	}
	return s
}

func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0 // interval endpoint products: 0·±∞ = 0
	}
	neg := (a < 0) != (b < 0)
	if a == NegInf || a == PosInf || b == NegInf || b == PosInf {
		if neg {
			return NegInf
		}
		return PosInf
	}
	p := a * b
	if p/a != b || (neg && p > 0) || (!neg && p < 0) {
		if neg {
			return NegInf
		}
		return PosInf
	}
	return p
}

// quoSat is truncated division of saturated endpoints; b is never 0.
func quoSat(a, b int64) int64 {
	if b == NegInf || b == PosInf {
		if a == NegInf || a == PosInf {
			// ±∞/±∞: magnitude unknown; callers take min/max over the
			// finite divisor candidates too, so 0 is a safe midpoint.
			return 0
		}
		return 0
	}
	if a == NegInf {
		if b < 0 {
			return PosInf
		}
		return NegInf
	}
	if a == PosInf {
		if b < 0 {
			return NegInf
		}
		return PosInf
	}
	if a == math.MinInt64 && b == -1 {
		return PosInf
	}
	return a / b
}

// ------------------------------------------------------------ interval ops

// Add abstracts x + y.
func Add(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	return norm(Val{Lo: addSat(a.Lo, b.Lo), Hi: addSat(a.Hi, b.Hi)})
}

// Sub abstracts x - y.
func Sub(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	return norm(Val{Lo: addSat(a.Lo, negSat(b.Hi)), Hi: addSat(a.Hi, negSat(b.Lo))})
}

// Neg abstracts -x.
func Neg(a Val) Val {
	if a.Bot {
		return Bottom()
	}
	return norm(Val{Lo: negSat(a.Hi), Hi: negSat(a.Lo), NZ: a.NZ})
}

// Mul abstracts x * y via the four endpoint products.
func Mul(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	p := [4]int64{
		mulSat(a.Lo, b.Lo), mulSat(a.Lo, b.Hi),
		mulSat(a.Hi, b.Lo), mulSat(a.Hi, b.Hi),
	}
	lo, hi := p[0], p[0]
	for _, x := range p[1:] {
		lo, hi = minI(lo, x), maxI(hi, x)
	}
	return norm(Val{Lo: lo, Hi: hi, NZ: a.Nonzero() && b.Nonzero()})
}

// Quo abstracts x / y (Go's truncated division) assuming y ≠ 0 at run
// time — states after a division only exist when it succeeded. Extreme
// quotients occur at numerator endpoints against divisor candidates
// {Lo, Hi, -1, 1} restricted to the divisor's interval.
func Quo(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	var divs []int64
	addDiv := func(d int64) {
		if d == 0 || d < b.Lo || d > b.Hi {
			return
		}
		for _, x := range divs {
			if x == d {
				return
			}
		}
		divs = append(divs, d)
	}
	addDiv(b.Lo)
	addDiv(b.Hi)
	addDiv(-1)
	addDiv(1)
	if len(divs) == 0 {
		return Bottom() // divisor provably 0: the division never succeeds
	}
	first := true
	var lo, hi int64
	for _, d := range divs {
		for _, n := range [2]int64{a.Lo, a.Hi} {
			q := quoSat(n, d)
			if first {
				lo, hi, first = q, q, false
			} else {
				lo, hi = minI(lo, q), maxI(hi, q)
			}
		}
	}
	// Truncation pulls quotients toward 0: if the numerator spans 0 the
	// quotient range must include 0.
	if a.Lo <= 0 && a.Hi >= 0 {
		lo, hi = minI(lo, 0), maxI(hi, 0)
	}
	return norm(Val{Lo: lo, Hi: hi})
}

// Rem abstracts x % y (Go semantics: result sign follows the dividend,
// |r| < |y|) assuming y ≠ 0.
func Rem(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	// Exact case: 0 <= a < min positive divisor ⇒ a unchanged.
	if a.Lo >= 0 && b.Lo > 0 && a.Hi < b.Lo {
		return a
	}
	m := maxI(absSat(b.Lo), absSat(b.Hi))
	var bound int64 = PosInf
	if m != PosInf {
		bound = m - 1
	}
	lo, hi := negSat(bound), bound
	if a.Lo >= 0 {
		lo = 0
	}
	if a.Hi <= 0 {
		hi = 0
	}
	if a.Hi != PosInf {
		hi = minI(hi, maxI(a.Hi, 0))
	}
	if a.Lo != NegInf {
		lo = maxI(lo, minI(a.Lo, 0))
	}
	return norm(Val{Lo: lo, Hi: hi})
}

func absSat(a int64) int64 {
	if a == NegInf || a == PosInf {
		return PosInf
	}
	if a < 0 {
		return -a
	}
	return a
}

// ------------------------------------------------------------- comparisons

// cmpOutcome builds a boolean result value: decided true [1,1], decided
// false [0,0], or unknown [0,1].
func boolVal(truth, decided bool) Val {
	if !decided {
		return Range(0, 1)
	}
	if truth {
		return Const(1)
	}
	return Const(0)
}

// Lss abstracts x < y.
func Lss(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	if a.Hi < b.Lo {
		return boolVal(true, true)
	}
	if a.Lo >= b.Hi {
		return boolVal(false, true)
	}
	return boolVal(false, false)
}

// Leq abstracts x <= y.
func Leq(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	if a.Hi <= b.Lo {
		return boolVal(true, true)
	}
	if a.Lo > b.Hi {
		return boolVal(false, true)
	}
	return boolVal(false, false)
}

// Eql abstracts x == y.
func Eql(a, b Val) Val {
	if a.Bot || b.Bot {
		return Bottom()
	}
	if ka, ok := a.ConstVal(); ok {
		if kb, ok2 := b.ConstVal(); ok2 {
			return boolVal(ka == kb, true)
		}
	}
	if a.Hi < b.Lo || b.Hi < a.Lo {
		return boolVal(false, true)
	}
	if a.IsZero() && b.Nonzero() || b.IsZero() && a.Nonzero() {
		return boolVal(false, true)
	}
	return boolVal(false, false)
}

// Not abstracts !x over 0/1-encoded booleans (any nonzero is truthy).
func Not(a Val) Val {
	if a.Bot {
		return Bottom()
	}
	if a.IsZero() {
		return Const(1)
	}
	if a.Nonzero() {
		return Const(0)
	}
	return Range(0, 1)
}

// Package transition implements the character-level transition system LeJIT
// builds on the fly during inference (paper Fig 2).
//
// LLMs emit numbers digit by digit, while the SMT solver reasons about whole
// variables. This package bridges the granularity gap: given a feasibility
// oracle over value ranges ("does any rule-compliant completion assign this
// variable a value in [lo, hi]?"), it computes which next characters — digits
// or the value terminator — keep the partial number on a path to a feasible
// value.
//
// States are digit prefixes in canonical decimal (no leading zeros except
// the number 0 itself). A digit d is admissible from prefix p iff some value
// whose decimal rendering starts with p·d and has at most MaxDigits digits is
// feasible; the terminator is admissible iff the value denoted by p itself is
// feasible.
package transition

import (
	"errors"
	"fmt"
)

// Oracle answers range-feasibility queries: it reports whether any value in
// the inclusive range [lo, hi] is feasible. Implementations are typically
// backed by an SMT solver constrained with the rules and the tokens generated
// so far; they must be conservative in neither direction (exact).
type Oracle func(lo, hi int64) bool

// BatchOracle answers a whole candidate's completion set in one call: it
// reports whether any of the inclusive ranges contains a feasible value. The
// oracle sees the full set up front, so an interval-based implementation can
// answer the easy ranges locally and spend solver work only on the residue.
// The ranges slice is owned by the caller and reused between calls.
type BatchOracle func(ranges [][2]int64) bool

// System is a character-level transition system over decimal digit strings.
// It keeps the ranges of the current oracle call in a scratch buffer, so it
// is not safe for concurrent use.
type System struct {
	// MaxDigits caps the number's width. It must cover the variable's
	// upper bound (a variable bounded by 300 needs MaxDigits ≥ 3).
	MaxDigits int
	// FeasibleAny is the oracle. Every question goes to it as a set of
	// ranges: a digit candidate's completion union, or one range for the
	// terminator, a leading 0 and HasPath.
	FeasibleAny BatchOracle

	rbuf [][2]int64 // the ranges of the current call
}

// State is a digit prefix: the value accumulated so far and the number of
// digits consumed. The zero State is the empty prefix (start state).
type State struct {
	val     int64
	ndigits int
}

// Value returns the integer denoted by the prefix; only meaningful when
// Len > 0.
func (s State) Value() int64 { return s.val }

// Len returns the number of digits consumed.
func (s State) Len() int { return s.ndigits }

// String renders the state for debugging.
func (s State) String() string {
	if s.ndigits == 0 {
		return "ε"
	}
	return fmt.Sprintf("%0*d", s.ndigits, s.val)
}

// Errors returned by Step.
var (
	ErrNotDigit    = errors.New("transition: character is not a decimal digit")
	ErrTooWide     = errors.New("transition: exceeded MaxDigits")
	ErrLeadingZero = errors.New("transition: leading zero")
)

// New constructs a transition system over a single-range oracle, lifted
// onto the batch form: a set of ranges is asked range by range, narrow to
// wide, stopping at the first feasible one. It panics if maxDigits is not in
// [1, 18] (18 keeps all reachable values inside int64).
func New(maxDigits int, oracle Oracle) *System {
	if oracle == nil {
		panic("transition: nil oracle")
	}
	return NewBatch(maxDigits, func(ranges [][2]int64) bool {
		for _, r := range ranges {
			if oracle(r[0], r[1]) {
				return true
			}
		}
		return false
	})
}

// NewBatch constructs a transition system whose oracle answers each
// question — a candidate's completion union, or a single range — in one
// call. It panics if maxDigits is not in [1, 18].
func NewBatch(maxDigits int, batch BatchOracle) *System {
	if maxDigits < 1 || maxDigits > 18 {
		panic(fmt.Sprintf("transition: MaxDigits %d out of [1,18]", maxDigits))
	}
	if batch == nil {
		panic("transition: nil batch oracle")
	}
	return &System{MaxDigits: maxDigits, FeasibleAny: batch, rbuf: make([][2]int64, 0, maxDigits+1)}
}

// Start returns the empty-prefix state.
func (s *System) Start() State { return State{} }

// Step consumes one digit character ('0'–'9').
func (s *System) Step(st State, c byte) (State, error) {
	if c < '0' || c > '9' {
		return st, ErrNotDigit
	}
	if st.ndigits >= s.MaxDigits {
		return st, ErrTooWide
	}
	if st.ndigits > 0 && st.val == 0 {
		return st, ErrLeadingZero
	}
	return State{val: st.val*10 + int64(c-'0'), ndigits: st.ndigits + 1}, nil
}

// Admissible computes, for the given state, which digits may follow
// (digits[d] for d in 0..9) and whether the value terminator may follow
// (canEnd). A digit d is admissible iff the completion set of prefix·d
// intersects the feasible set; completions of a prefix p with k digits are
//
//	⋃_{j=0}^{MaxDigits-k} [ p·10^j , p·10^j + 10^j − 1 ]
//
// i.e. p itself, p followed by one more digit, and so on up to the width cap.
// The canonical-decimal rule forbids extending the prefix "0".
func (s *System) Admissible(st State) (digits [10]bool, canEnd bool) {
	canEnd = st.ndigits > 0 && s.feasible(st.val, st.val)
	if st.ndigits >= s.MaxDigits {
		return digits, canEnd
	}
	if st.ndigits > 0 && st.val == 0 {
		// "0" cannot be extended (canonical decimal).
		return digits, canEnd
	}
	lo := 0
	if st.ndigits == 0 {
		// First digit: "0" is a complete number on its own, admissible
		// iff 0 is feasible — checked via the prefix-completion union
		// which for prefix "0" collapses to the single value 0.
		digits[0] = s.feasible(0, 0)
		lo = 1
	}
	for d := lo; d <= 9; d++ {
		v := st.val*10 + int64(d)
		if s.prefixFeasible(v, st.ndigits+1) {
			digits[d] = true
		}
	}
	return digits, canEnd
}

// prefixFeasible reports whether any ≤MaxDigits-digit value whose decimal
// form starts with the k-digit prefix of value v is feasible: the whole
// completion union, narrow to wide, goes out as one call.
func (s *System) prefixFeasible(v int64, k int) bool {
	s.rbuf = s.rbuf[:0]
	for j := 0; j <= s.MaxDigits-k; j++ {
		width := pow10(j)
		s.rbuf = append(s.rbuf, [2]int64{v * width, v*width + width - 1})
	}
	return s.FeasibleAny(s.rbuf)
}

// feasible asks the oracle about the one range [lo, hi].
func (s *System) feasible(lo, hi int64) bool {
	s.rbuf = append(s.rbuf[:0], [2]int64{lo, hi})
	return s.FeasibleAny(s.rbuf)
}

// HasPath reports whether any feasible value is reachable from the start
// state — i.e. whether the variable has any feasible value at all within the
// width cap. LeJIT's lookahead invariant guarantees this is true whenever a
// value generation begins.
func (s *System) HasPath() bool {
	return s.feasible(0, pow10(s.MaxDigits)-1)
}

func pow10(n int) int64 {
	v := int64(1)
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

// IntervalSetOracle builds an Oracle from an explicit union of inclusive
// intervals; useful for tests and for callers that precompute the feasible
// set.
func IntervalSetOracle(intervals [][2]int64) Oracle {
	ivs := append([][2]int64(nil), intervals...)
	return func(lo, hi int64) bool {
		for _, iv := range ivs {
			if iv[0] <= hi && lo <= iv[1] {
				return true
			}
		}
		return false
	}
}

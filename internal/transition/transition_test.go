package transition

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestAdmissibleSimpleRange(t *testing.T) {
	// Feasible set [0, 40], width 2 — the paper's I3 after the prefix
	// 20,15,25 under R2 with TotalIngress=100 (Fig 1b).
	sys := New(2, IntervalSetOracle([][2]int64{{0, 40}}))
	digits, canEnd := sys.Admissible(sys.Start())
	if canEnd {
		t.Error("empty prefix must not terminate")
	}
	// First digit d leads to values {d} ∪ [10d, 10d+9]; feasible for d ≤ 4
	// (d=4 → {4} ∪ [40,49], 40 feasible) and for d in 5..9 the single
	// value d itself is ≤ 40 so also feasible.
	for d := 0; d <= 9; d++ {
		if !digits[d] {
			t.Errorf("first digit %d should be admissible (value %d ≤ 40)", d, d)
		}
	}

	// After '4': value 4, can end; digit extensions 40..49 → only 0.
	st, err := sys.Step(sys.Start(), '4')
	if err != nil {
		t.Fatal(err)
	}
	digits, canEnd = sys.Admissible(st)
	if !canEnd {
		t.Error("prefix 4 denotes 4, which is feasible → should terminate")
	}
	for d := 0; d <= 9; d++ {
		want := d == 0 // 40 feasible, 41..49 not
		if digits[d] != want {
			t.Errorf("after '4': digit %d admissible=%v, want %v", d, digits[d], want)
		}
	}

	// After '7' (width 2, completions {7} ∪ [70,79]): 7 feasible, ends ok,
	// but no extension.
	st, _ = sys.Step(sys.Start(), '7')
	digits, canEnd = sys.Admissible(st)
	if !canEnd {
		t.Error("7 is feasible")
	}
	for d := 0; d <= 9; d++ {
		if digits[d] {
			t.Errorf("after '7': digit %d should be blocked (7%d > 40)", d, d)
		}
	}
}

func TestAdmissibleWithHole(t *testing.T) {
	// The R3 hole from the optimizer test: feasible set [0,10] ∪ [30,40].
	sys := New(2, IntervalSetOracle([][2]int64{{0, 10}, {30, 40}}))
	digits, _ := sys.Admissible(sys.Start())
	// Digit 2 → {2} ∪ [20,29]: 2 ≤ 10 feasible → admissible.
	if !digits[2] {
		t.Error("digit 2 admissible via the single value 2")
	}
	// After '2', extensions 20..29 all infeasible, but 2 itself feasible.
	st, _ := sys.Step(sys.Start(), '2')
	digits, canEnd := sys.Admissible(st)
	if !canEnd {
		t.Error("2 feasible")
	}
	for d := 0; d <= 9; d++ {
		if digits[d] {
			t.Errorf("2%d should be blocked (hole)", d)
		}
	}
	// After '1': 1 feasible; extensions 10 feasible only.
	st, _ = sys.Step(sys.Start(), '1')
	digits, canEnd = sys.Admissible(st)
	if !canEnd {
		t.Error("1 feasible")
	}
	for d := 0; d <= 9; d++ {
		want := d == 0
		if digits[d] != want {
			t.Errorf("1%d admissible=%v want %v", d, digits[d], want)
		}
	}
	// After '3': 3 feasible; 30..39 all feasible.
	st, _ = sys.Step(sys.Start(), '3')
	digits, _ = sys.Admissible(st)
	for d := 0; d <= 9; d++ {
		if !digits[d] {
			t.Errorf("3%d should be admissible", d)
		}
	}
}

func TestLeadingZeroPolicy(t *testing.T) {
	sys := New(3, IntervalSetOracle([][2]int64{{0, 999}}))
	digits, _ := sys.Admissible(sys.Start())
	if !digits[0] {
		t.Error("bare 0 must be admissible when 0 is feasible")
	}
	st, _ := sys.Step(sys.Start(), '0')
	digits, canEnd := sys.Admissible(st)
	if !canEnd {
		t.Error("\"0\" should terminate")
	}
	for d := 0; d <= 9; d++ {
		if digits[d] {
			t.Errorf("extending \"0\" with %d must be forbidden", d)
		}
	}
	if _, err := sys.Step(st, '5'); err != ErrLeadingZero {
		t.Errorf("Step after 0: err = %v, want ErrLeadingZero", err)
	}
	// When 0 is infeasible, the first '0' is inadmissible.
	sys2 := New(3, IntervalSetOracle([][2]int64{{1, 999}}))
	digits, _ = sys2.Admissible(sys2.Start())
	if digits[0] {
		t.Error("bare 0 must be inadmissible when 0 is infeasible")
	}
}

func TestStepErrors(t *testing.T) {
	sys := New(2, IntervalSetOracle([][2]int64{{0, 99}}))
	if _, err := sys.Step(sys.Start(), 'x'); err != ErrNotDigit {
		t.Errorf("non-digit: %v", err)
	}
	st, _ := sys.Step(sys.Start(), '1')
	st, _ = sys.Step(st, '2')
	if _, err := sys.Step(st, '3'); err != ErrTooWide {
		t.Errorf("width overflow: %v", err)
	}
}

func TestHasPath(t *testing.T) {
	sys := New(2, IntervalSetOracle([][2]int64{{150, 200}})) // outside 2-digit range
	if sys.HasPath() {
		t.Error("no 2-digit value in [150,200]")
	}
	sys2 := New(3, IntervalSetOracle([][2]int64{{150, 200}}))
	if !sys2.HasPath() {
		t.Error("3-digit values exist in [150,200]")
	}
}

// TestExhaustiveAgainstEnumeration verifies that, for random interval sets,
// the set of strings accepted by walking the transition system equals the
// set of canonical decimal renderings of feasible values.
func TestExhaustiveAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		maxDigits := 1 + rng.Intn(3) // 1..3
		limit := pow10(maxDigits) - 1
		// Random union of up to 3 intervals within [0, limit].
		var ivs [][2]int64
		for i := 0; i < 1+rng.Intn(3); i++ {
			a := rng.Int63n(limit + 1)
			b := a + rng.Int63n(limit-a+1)
			ivs = append(ivs, [2]int64{a, b})
		}
		sys := New(maxDigits, IntervalSetOracle(ivs))

		feasible := func(v int64) bool {
			for _, iv := range ivs {
				if v >= iv[0] && v <= iv[1] {
					return true
				}
			}
			return false
		}

		// Enumerate accepted strings via DFS.
		accepted := map[string]bool{}
		var dfs func(st State, s string)
		dfs = func(st State, s string) {
			digits, canEnd := sys.Admissible(st)
			if canEnd {
				accepted[s] = true
			}
			for d := 0; d <= 9; d++ {
				if !digits[d] {
					continue
				}
				nst, err := sys.Step(st, byte('0'+d))
				if err != nil {
					t.Fatalf("admissible digit rejected by Step: %v", err)
				}
				dfs(nst, s+string(byte('0'+d)))
			}
		}
		dfs(sys.Start(), "")

		// Expected: canonical decimal strings of feasible values.
		want := map[string]bool{}
		for v := int64(0); v <= limit; v++ {
			if feasible(v) {
				want[strconv.FormatInt(v, 10)] = true
			}
		}
		if len(accepted) != len(want) {
			t.Fatalf("trial %d (ivs %v, w=%d): accepted %d strings, want %d\naccepted=%v\nwant=%v",
				trial, ivs, maxDigits, len(accepted), len(want), keys(accepted), keys(want))
		}
		for s := range want {
			if !accepted[s] {
				t.Fatalf("trial %d: missing %q", trial, s)
			}
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestNewPanics(t *testing.T) {
	for _, bad := range []int{0, 19, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", bad)
				}
			}()
			New(bad, IntervalSetOracle(nil))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil oracle should panic")
			}
		}()
		New(2, nil)
	}()
}

func TestStateString(t *testing.T) {
	sys := New(3, IntervalSetOracle([][2]int64{{0, 999}}))
	st := sys.Start()
	if st.String() != "ε" {
		t.Errorf("start = %q", st.String())
	}
	st, _ = sys.Step(st, '4')
	st, _ = sys.Step(st, '2')
	if got := st.String(); got != "42" {
		t.Errorf("state = %q, want 42", got)
	}
	if st.Value() != 42 || st.Len() != 2 {
		t.Errorf("Value/Len = %d/%d", st.Value(), st.Len())
	}
	_ = fmt.Sprintf("%v", st)
}

// TestAdmissibleMatchesValueEnumeration checks the mask against the
// feasible values themselves: for random interval sets, at every reachable
// state, Admissible must equal the set of next characters — a digit, or the
// terminator — of the canonical renderings below 10^MaxDigits that lie in the
// set and extend the state's prefix. Systems built by New (the single-range
// oracle asked range by range) and by NewBatch (a union oracle answering each
// call at once) are checked alike.
func TestAdmissibleMatchesValueEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		maxDigits := 1 + rng.Intn(3)
		limit := pow10(maxDigits) - 1
		var ivs [][2]int64
		for i := 0; i < 1+rng.Intn(3); i++ {
			a := rng.Int63n(limit + 1)
			b := a + rng.Int63n(limit-a+1)
			ivs = append(ivs, [2]int64{a, b})
		}
		var renderings []string
		for v := int64(0); v <= limit; v++ {
			for _, iv := range ivs {
				if iv[0] <= v && v <= iv[1] {
					renderings = append(renderings, strconv.FormatInt(v, 10))
					break
				}
			}
		}
		// next returns the reference admissibility after prefix.
		next := func(prefix string) (digits [10]bool, canEnd bool) {
			for _, r := range renderings {
				switch {
				case r == prefix:
					canEnd = true
				case strings.HasPrefix(r, prefix):
					digits[r[len(prefix)]-'0'] = true
				}
			}
			return digits, canEnd
		}
		calls := 0
		union := IntervalSetOracle(ivs)
		systems := map[string]*System{
			"New": New(maxDigits, union),
			"NewBatch": NewBatch(maxDigits, func(ranges [][2]int64) bool {
				calls++
				for _, r := range ranges {
					if union(r[0], r[1]) {
						return true
					}
				}
				return false
			}),
		}
		for name, sys := range systems {
			states := 0
			var walk func(st State, prefix string)
			walk = func(st State, prefix string) {
				states++
				digits, canEnd := sys.Admissible(st)
				wantDigits, wantEnd := next(prefix)
				if digits != wantDigits || canEnd != wantEnd {
					t.Fatalf("trial %d (ivs %v, w=%d) %s state %q: admissible (%v,%v), the values say (%v,%v)",
						trial, ivs, maxDigits, name, prefix, digits, canEnd, wantDigits, wantEnd)
				}
				for d := 0; d <= 9; d++ {
					if !digits[d] {
						continue
					}
					nst, err := sys.Step(st, byte('0'+d))
					if err != nil {
						t.Fatal(err)
					}
					walk(nst, prefix+string(byte('0'+d)))
				}
			}
			walk(sys.Start(), "")
			if states < 2 {
				t.Fatalf("trial %d %s: walked %d states", trial, name, states)
			}
		}
		if calls == 0 {
			t.Fatalf("trial %d: batch oracle never consulted", trial)
		}
	}
}

// TestBatchOneCallPerCandidate pins the batching contract: from the start
// state of a width-3 system, each first-digit candidate costs exactly one
// batch call carrying all its completion widths.
func TestBatchOneCallPerCandidate(t *testing.T) {
	var got [][][2]int64
	sys := NewBatch(3, func(ranges [][2]int64) bool {
		cp := append([][2]int64(nil), ranges...)
		got = append(got, cp)
		return true
	})
	digits, canEnd := sys.Admissible(sys.Start())
	if canEnd {
		t.Error("empty prefix must not end")
	}
	for d := 0; d <= 9; d++ {
		if !digits[d] {
			t.Errorf("digit %d inadmissible under a full-range oracle", d)
		}
	}
	// Digit 0 collapses to the single value 0, one call of one range;
	// digits 1..9 each cost one call of all their widths.
	if len(got) != 10 {
		t.Fatalf("%d batch calls, want 10 (one per first digit)", len(got))
	}
	if want := [2]int64{0, 0}; len(got[0]) != 1 || got[0][0] != want {
		t.Errorf("digit 0 asked %v, want [%v]", got[0], want)
	}
	// Candidate "7": completions are {7, 70..79, 700..799}.
	want := [][2]int64{{7, 7}, {70, 79}, {700, 799}}
	for _, call := range got {
		if call[0][0] == 7 {
			for i, r := range want {
				if call[i] != r {
					t.Fatalf("candidate 7 ranges %v, want %v", call, want)
				}
			}
		}
	}
	if sys.FeasibleAny == nil {
		t.Error("NewBatch did not set FeasibleAny")
	}
}

func TestNewBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil batch oracle should panic")
		}
	}()
	NewBatch(2, nil)
}

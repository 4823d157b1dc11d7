package smt

import (
	"math/rand"
	"reflect"
	"testing"
)

// propagateOneRef is propagateOne as it stood before PR 18: both bounds of
// every term are computed by integer division on every visit, and a
// tightening restarts by recursion. It is kept as the reference the
// division-free loop must reproduce step for step.
func newDomains(lo, hi []int64) *domains {
	return &domains{lo: append([]int64(nil), lo...), hi: append([]int64(nil), hi...)}
}

func propagateOneRef(d *domains, c *lincon, changedVars *[]Var) (ok, changed bool) {
	var minSum, maxSum int64
	for _, t := range c.terms {
		if t.C > 0 {
			minSum += t.C * d.lo[t.V]
			maxSum += t.C * d.hi[t.V]
		} else {
			minSum += t.C * d.hi[t.V]
			maxSum += t.C * d.lo[t.V]
		}
	}
	if minSum > c.rhs {
		return false, false
	}
	if c.eq && maxSum < c.rhs {
		return false, false
	}
	for _, t := range c.terms {
		var tMin, tMax int64
		if t.C > 0 {
			tMin, tMax = t.C*d.lo[t.V], t.C*d.hi[t.V]
		} else {
			tMin, tMax = t.C*d.hi[t.V], t.C*d.lo[t.V]
		}
		ub := c.rhs - (minSum - tMin)
		var ch, empty bool
		if t.C > 0 {
			ch, empty = d.tightenHi(t.V, floorDiv(ub, t.C))
		} else {
			ch, empty = d.tightenLo(t.V, ceilDiv(ub, t.C))
		}
		if empty {
			return false, false
		}
		if ch {
			if changedVars != nil {
				*changedVars = append(*changedVars, t.V)
			}
			return propagateRestartRef(d, c, changedVars)
		}
		if c.eq {
			lb := c.rhs - (maxSum - tMax)
			if t.C > 0 {
				ch, empty = d.tightenLo(t.V, ceilDiv(lb, t.C))
			} else {
				ch, empty = d.tightenHi(t.V, floorDiv(lb, t.C))
			}
			if empty {
				return false, false
			}
			if ch {
				if changedVars != nil {
					*changedVars = append(*changedVars, t.V)
				}
				return propagateRestartRef(d, c, changedVars)
			}
		}
	}
	return true, changed
}

func propagateRestartRef(d *domains, c *lincon, changedVars *[]Var) (ok, changed bool) {
	ok, _ = propagateOneRef(d, c, changedVars)
	return ok, true
}

// tightenLo and tightenHi are the reference's bound updates: they report
// whether the domain changed and whether it became empty.
func (d *domains) tightenLo(v Var, b int64) (changed, empty bool) {
	if b <= d.lo[v] {
		return false, false
	}
	d.lo[v] = b
	return true, b > d.hi[v]
}

func (d *domains) tightenHi(v Var, b int64) (changed, empty bool) {
	if b >= d.hi[v] {
		return false, false
	}
	d.hi[v] = b
	return true, b < d.lo[v]
}

// TestPropagateOneMatchesReference drives the division-free propagateOne and
// the reference over random rows and boxes — fixed variables and rows that
// conflict included — and requires the same verdict, the same domains and
// the same sequence of tightened variables, which is what keeps
// Stats.Propagations and the wake-up order of every search unchanged.
func TestPropagateOneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	coefs := []int64{1, 2, 3, 7, -1, -2, -3, -7}
	const nvars = 5
	conflicts, tightenings := 0, 0
	for iter := 0; iter < 200000; iter++ {
		lo, hi := make([]int64, nvars), make([]int64, nvars)
		for v := range lo {
			lo[v] = int64(rng.Intn(41) - 20)
			switch rng.Intn(4) {
			case 0:
				hi[v] = lo[v] // fixed
			case 1:
				hi[v] = lo[v] + int64(rng.Intn(3))
			default:
				hi[v] = lo[v] + int64(rng.Intn(60))
			}
		}
		c := lincon{eq: rng.Intn(3) == 0}
		for _, v := range rng.Perm(nvars)[:1+rng.Intn(4)] {
			c.terms = append(c.terms, term{V: Var(v), C: coefs[rng.Intn(len(coefs))]})
		}
		// Aim rhs into and around the row's reachable range, so entailed,
		// tightening and conflicting rows all occur.
		box := domains{lo: lo, hi: hi}
		minSum, maxSum := box.exprRange(LinExpr{terms: c.terms})
		c.rhs = minSum - 5 + rng.Int63n(maxSum-minSum+11)

		got, want := newDomains(lo, hi), newDomains(lo, hi)
		var moved []bound
		var gotVars, wantVars []Var
		okGot, chGot := propagateOne(got, &c, &moved)
		for _, b := range moved {
			gotVars = append(gotVars, Var(b>>1))
		}
		okWant, chWant := propagateOneRef(want, &c, &wantVars)
		if okGot != okWant || (okGot && chGot != chWant) {
			t.Fatalf("row %+v on lo=%v hi=%v: (ok, changed) = (%v, %v), reference (%v, %v)", c, lo, hi, okGot, chGot, okWant, chWant)
		}
		if !reflect.DeepEqual(gotVars, wantVars) {
			t.Fatalf("row %+v on lo=%v hi=%v: tightened %v, reference %v", c, lo, hi, gotVars, wantVars)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %+v on lo=%v hi=%v: domains %+v, reference %+v", c, lo, hi, got, want)
		}
		// The ends reported as moved are exactly the ends that moved: the
		// bound-filtered wake-ups sleep through everything else.
		movedSet := map[bound]bool{}
		for _, b := range moved {
			movedSet[b] = true
		}
		for v := range lo {
			if movedSet[loOf(Var(v))] != (got.lo[v] != lo[v]) || movedSet[hiOf(Var(v))] != (got.hi[v] != hi[v]) {
				t.Fatalf("row %+v on lo=%v hi=%v: reported moves %v, domains now %+v", c, lo, hi, moved, got)
			}
		}
		// The nil-changedVars form (round-robin propagate) must agree too.
		got2 := newDomains(lo, hi)
		if ok2, ch2 := propagateOne(got2, &c, nil); ok2 != okWant || (ok2 && ch2 != chWant) || !reflect.DeepEqual(got2, want) {
			t.Fatalf("row %+v on lo=%v hi=%v: nil changedVars form disagrees", c, lo, hi)
		}
		if !okWant {
			conflicts++
		}
		tightenings += len(wantVars)
	}
	if conflicts < 1000 || tightenings < 10000 {
		t.Fatalf("generator too tame: %d conflicts, %d tightenings", conflicts, tightenings)
	}
}

// ceilDiv returns ⌈a/b⌉ for b > 0 (the reference's rounding; the
// division-free loop needs only floorDiv's non-negative case).
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

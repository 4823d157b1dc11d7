package tensor

import "math"

// geluRef is the tanh-approximation GELU in float64. Rounded once to float32
// it defines GELU's result for every input: the table below only ever
// reproduces it.
func geluRef(u float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/π)
	return 0.5 * u * (1 + math.Tanh(c*(u+0.044715*u*u*u)))
}

// The fast path approximates the float64 value under geluRef's rounding by a
// degree-6 polynomial per interval of width 1/geluPerUnit on [-geluMax,
// geluMax), to within geluEps (worst case over every float32 in range:
// 7.2·10⁻¹⁵). When y-geluEps and y+geluEps round to the same float32, so does
// everything between them, the reference value included, and that float32 is
// the answer; otherwise the input goes to geluRef, as do |v| < geluMin (the
// float32 grid is finer than geluEps there), |v| ≥ geluMax, and NaN. The
// bound is measured, not proved: TestGELUMatchesReference compares the result
// with geluRef on all 2³² inputs (DESIGN.md §7).
const (
	geluMax     = 8
	geluPerUnit = 32
	geluMin     = 1.0 / 1024
	geluEps     = 2e-13
)

// geluTab[k] holds the monomial coefficients, in z ∈ [-1, 1) across interval
// k, of the Chebyshev interpolant of the reference through the interval's
// seven Chebyshev nodes.
var geluTab [2 * geluMax * geluPerUnit][7]float64

func init() {
	const n = 7 // len(geluTab[0]): degree 6
	// cheb[k] is T_k in monomials: T_{k+1} = 2z·T_k − T_{k−1}.
	var cheb, cos [n][n]float64
	cheb[0][0], cheb[1][1] = 1, 1
	for k := 2; k < n; k++ {
		for i := 0; i < n; i++ {
			cheb[k][i] = -cheb[k-2][i]
			if i > 0 {
				cheb[k][i] += 2 * cheb[k-1][i-1]
			}
		}
	}
	// cos[k][j] is T_k at the j-th Chebyshev node; cos[1] is the nodes.
	for k := range cos {
		for j := range cos[k] {
			cos[k][j] = math.Cos(math.Pi * float64(k) * (float64(j) + 0.5) / n)
		}
	}
	for iv := range geluTab {
		mid := (float64(iv)+0.5)/geluPerUnit - geluMax
		var f [n]float64
		for j := range f {
			f[j] = geluRef(mid + cos[1][j]/(2*geluPerUnit))
		}
		for k := 0; k < n; k++ {
			var ck float64 // the interpolant's coefficient of T_k
			for j := range f {
				ck += f[j] * cos[k][j]
			}
			ck *= 2.0 / n
			if k == 0 {
				ck /= 2
			}
			for i := 0; i <= k; i++ {
				geluTab[iv][i] += ck * cheb[k][i]
			}
		}
	}
}

// GELU applies the tanh-approximation GELU elementwise: out[i] = gelu(x[i]),
// bit for bit the float32 geluRef returns.
func GELU(out, x []float32) {
	for i, v := range x {
		u := float64(v)
		if a := math.Abs(u); a >= geluMin && a < geluMax {
			t := (u + geluMax) * geluPerUnit
			k := int(t)
			z := 2*(t-float64(k)) - 1
			c := &geluTab[k]
			z2 := z * z
			y := (c[0] + c[1]*z) + (c[2]+c[3]*z)*z2 + ((c[4]+c[5]*z)+c[6]*z2)*(z2*z2)
			if lo := float32(y - geluEps); lo == float32(y+geluEps) {
				out[i] = lo
				continue
			}
		}
		out[i] = float32(geluRef(u))
	}
}

package tensor

import (
	"math"
	"math/big"
)

// expFast is SoftmaxRow's exponential, whose arguments v − max are never
// positive: for x in [expMin, 0] it returns float32(math.Exp(float64(x))),
// the correctly rounded eˣ, and true — or false, for x outside that range
// (−Inf and NaN among them) and for the rare input whose rounding it cannot
// settle. The caller then takes math.Exp.
//
// It reduces x by ln2/32 in the Cody–Waite way, x = k·ln2/32 + r with |r| ≤
// ln2/64 (k·expL1 is exact: expL1 has 32 significant bits and |k| < 2¹²),
// evaluates eʳ by its degree-6 Taylor polynomial in Estrin's form
// (truncation error below 4·10⁻¹⁸), and multiplies by 2^(k/32), whose
// exponent bits come from k and whose fraction from exp2Tab[k mod 32]. k is
// rounded to nearest by adding expShift, which leaves it in the low bits.
// The float64 result y is within y·expEps of eˣ, so when y−y·expEps and
// y+y·expEps round to the same float32, so does eˣ, and that float32 is the
// answer; every result is normal, as e^expMin is. The bound is measured,
// not proved: TestExpMatchesMathExp compares the result with math.Exp on all
// 2³¹ non-positive float32s (DESIGN.md §7).
//
// Every product that feeds an add is rounded by an explicit conversion, so
// no GOARCH may fuse it (Go spec, §Arithmetic operators).
func expFast(x float32) (float32, bool) {
	if !(x >= expMin && x <= 0) {
		return 0, false
	}
	u := float64(x)
	kd := float64(u*(32/math.Ln2)) + expShift
	k := int64(math.Float64bits(kd) - math.Float64bits(expShift))
	kf := kd - expShift
	r := (u - float64(kf*expL1)) - float64(kf*expL2)
	r2 := r * r
	p := (1 + r) + float64(r2*((0.5+float64(r*(1.0/6)))+
		float64(r2*((1.0/24+float64(r*(1.0/120)))+float64(r2*(1.0/720))))))
	y := p * math.Float64frombits(exp2Bits[k&31]+uint64(k>>5)<<52)
	e := float64(y * expEps)
	lo := float32(y - e)
	return lo, lo == float32(y+e)
}

const (
	expMin   = -87                             // e⁻⁸⁷ ≈ 1.6·10⁻³⁸ is a normal float32
	expEps   = 0x1p-40                         // relative error bound of y
	expShift = 0x1.8p52                        // adding it rounds to an integer
	expL1    = 6.93147180369123816490e-01 / 32 // ln2/32, high 32 bits (fdlibm's ln2HI)
	expL2    = 1.90821492927058770002e-10 / 32 // ln2/32 − expL1 (fdlibm's ln2LO)
)

// exp2Bits[j] holds the bits of 2^(j/32) rounded to float64, from five
// 128-bit square roots of 2^j in math/big: integer arithmetic, so the table
// is the same on every host.
var exp2Bits [32]uint64

func init() {
	for j := range exp2Bits {
		v := new(big.Float).SetPrec(128).SetInt64(1 << j)
		for range 5 {
			v.Sqrt(v)
		}
		f, _ := v.Float64()
		exp2Bits[j] = math.Float64bits(f)
	}
}

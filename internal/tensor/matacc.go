package tensor

import "fmt"

// MatAccum is the inner kernel of the decode forward: for r < rows and j < out
// it computes
//
//	y[r·out+j] += Σ_p x[r·in+p] · w[p·wstride+j]
//
// with p ascending, one accumulator per output element and every product
// rounded to float32 before its add — the float32 operation sequence of the
// scalar loop. Every projection is a call with wstride = out; attention's
// scores and value sums are rows = 1 calls over the KV cache (DESIGN.md §7).
// amd64 runs register tiles in SSE2 (matacc_amd64.s), every other GOARCH runs
// matAccumGeneric; the float32 results are the same bit for bit (NaN
// payloads aside).
//
// y must not overlap x or w. MatAccum panics, before any kernel reads
// through a raw pointer, on a negative argument or unless len(y) ≥ rows·out,
// len(x) ≥ rows·in and, when in and out are positive, len(w) ≥
// (in−1)·wstride + out.
func MatAccum(y, x, w []float32, rows, in, out, wstride int) {
	if rows < 0 || in < 0 || out < 0 || wstride < 0 ||
		!fits(rows, out, len(y)) || !fits(rows, in, len(x)) ||
		in > 0 && out > 0 && (out > len(w) || !fits(in-1, wstride, len(w)-out)) {
		panic(fmt.Sprintf("tensor: MatAccum(len %d, %d, %d; rows %d, in %d, out %d, wstride %d) out of bounds",
			len(y), len(x), len(w), rows, in, out, wstride))
	}
	if rows == 0 || in == 0 || out == 0 {
		return
	}
	matAccum(y, x, w, rows, in, out, wstride)
}

// fits reports whether a·b ≤ n for non-negative a, b and n, without
// overflowing.
func fits(a, b, n int) bool { return b == 0 || a <= n/b }

// matAccumGeneric is MatAccum as a Go loop: the body on every GOARCH without
// an assembly kernel, and the reference the tests hold the assembly to. The
// explicit float32 conversion rounds each product, which forbids the compiler
// from fusing it into the add (Go spec, §Arithmetic operators); make verify
// fails if an arm64 build of this file shows a fused multiply-add.
func matAccumGeneric(y, x, w []float32, rows, in, out, wstride int) {
	for r := 0; r < rows; r++ {
		yr := y[r*out : (r+1)*out]
		for p, xv := range x[r*in : (r+1)*in] {
			wp := w[p*wstride : p*wstride+out]
			for j := range yr {
				yr[j] += float32(xv * wp[j])
			}
		}
	}
}

// Package tensor provides the dense float32 kernels underlying the
// internal/nn transformer: row-major matrices, matmul variants (including
// the transposed forms needed by manual backpropagation), softmax,
// layer-norm and GELU forward/backward, and seeded Gaussian initialization.
//
// Everything is scalar Go with cache-friendly loop ordering, except one
// kernel: MatAccum, which computes the decode forward's projections and
// attention products, has an SSE2 body on amd64 (matacc_amd64.s) that keeps output tiles in registers
// and performs the Go loop's float32 operations on each element in the Go
// loop's order. No dependency, no cgo — fast enough for the
// paper-scale models LeJIT uses (the paper deliberately picks a small,
// generic LM; see DESIGN.md).
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	W    []float32
}

// NewMat allocates an R×C zero matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", r, c))
	}
	return &Mat{R: r, C: c, W: make([]float32, r*c)}
}

// FromSlice wraps data (length r*c) as an R×C matrix without copying.
func FromSlice(r, c int, data []float32) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d with %d values", r, c, len(data)))
	}
	return &Mat{R: r, C: c, W: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float32 { return m.W[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float32) { m.W[i*m.C+j] = v }

// Row returns a view of row i.
func (m *Mat) Row(i int) []float32 { return m.W[i*m.C : (i+1)*m.C] }

// Zero clears all elements.
func (m *Mat) Zero() {
	for i := range m.W {
		m.W[i] = 0
	}
}

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.R, m.C)
	copy(out.W, m.W)
	return out
}

// Randn fills m with N(0, std²) samples from rng.
func (m *Mat) Randn(rng *rand.Rand, std float64) {
	for i := range m.W {
		m.W[i] = float32(rng.NormFloat64() * std)
	}
}

// MatMul computes dst = A·B for A (n×k) and B (k×m); dst must be n×m and is
// overwritten. The k-outer loop order keeps B rows hot in cache.
func MatMul(dst, a, b *Mat) {
	if a.C != b.R || dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("tensor: MatMul dims %dx%d · %dx%d -> %dx%d", a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	dst.Zero()
	n, k, m := a.R, a.C, b.C
	for i := 0; i < n; i++ {
		arow := a.W[i*k : (i+1)*k]
		drow := dst.W[i*m : (i+1)*m]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.W[p*m : (p+1)*m]
			for j := 0; j < m; j++ {
				drow[j] += av * brow[j]
			}
		}
	}
}

// MatMulAddTransB computes dst += A·Bᵀ for A (n×k), B (m×k); dst is n×m.
// This is the "weights stored output-major" product used by linear layers'
// backward-through-weights.
func MatMulAddTransB(dst, a, b *Mat) {
	if a.C != b.C || dst.R != a.R || dst.C != b.R {
		panic(fmt.Sprintf("tensor: MatMulAddTransB dims %dx%d · (%dx%d)ᵀ -> %dx%d", a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	n, k, m := a.R, a.C, b.R
	for i := 0; i < n; i++ {
		arow := a.W[i*k : (i+1)*k]
		drow := dst.W[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			brow := b.W[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			drow[j] += s
		}
	}
}

// MatMulAddTransA computes dst += Aᵀ·B for A (k×n), B (k×m); dst is n×m.
// This accumulates weight gradients (activationsᵀ · upstream).
func MatMulAddTransA(dst, a, b *Mat) {
	if a.R != b.R || dst.R != a.C || dst.C != b.C {
		panic(fmt.Sprintf("tensor: MatMulAddTransA dims (%dx%d)ᵀ · %dx%d -> %dx%d", a.R, a.C, b.R, b.C, dst.R, dst.C))
	}
	k, n, m := a.R, a.C, b.C
	for p := 0; p < k; p++ {
		arow := a.W[p*n : (p+1)*n]
		brow := b.W[p*m : (p+1)*m]
		for i := 0; i < n; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.W[i*m : (i+1)*m]
			for j := 0; j < m; j++ {
				drow[j] += av * brow[j]
			}
		}
	}
}

// AddRow adds vector v to every row of m (broadcast bias add).
func AddRow(m *Mat, v []float32) {
	if len(v) != m.C {
		panic("tensor: AddRow length mismatch")
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// SumRowsInto accumulates the column sums of m into v (bias gradient).
func SumRowsInto(v []float32, m *Mat) {
	if len(v) != m.C {
		panic("tensor: SumRowsInto length mismatch")
	}
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		for j := range row {
			v[j] += row[j]
		}
	}
}

// SoftmaxRow computes a numerically stable softmax of x in place.
func SoftmaxRow(x []float32) {
	if len(x) == 0 {
		return
	}
	maxV := x[0]
	for _, v := range x[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float32
	for i, v := range x {
		e := float32(math.Exp(float64(v - maxV)))
		x[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range x {
		x[i] *= inv
	}
}

// SoftmaxBackwardRow computes, in place into dx, the gradient through a
// softmax row: dx = p ⊙ (dy − ⟨dy, p⟩) where p is the softmax output.
func SoftmaxBackwardRow(dx, dy, p []float32) {
	var dot float32
	for i := range p {
		dot += dy[i] * p[i]
	}
	for i := range p {
		dx[i] = p[i] * (dy[i] - dot)
	}
}

const lnEps = 1e-5

// LayerNormRow normalizes x into out using gamma/beta, returning the mean
// and inverse std needed by the backward pass.
func LayerNormRow(out, x, gamma, beta []float32) (mean, invStd float32) {
	n := float32(len(x))
	var m float32
	for _, v := range x {
		m += v
	}
	m /= n
	var va float32
	for _, v := range x {
		d := v - m
		va += d * d
	}
	va /= n
	inv := float32(1 / math.Sqrt(float64(va)+lnEps))
	for i, v := range x {
		out[i] = (v-m)*inv*gamma[i] + beta[i]
	}
	return m, inv
}

// LayerNormBackwardRow backpropagates through one layer-norm row.
// dgamma/dbeta are accumulated; dx is overwritten.
func LayerNormBackwardRow(dx, dy, x []float32, mean, invStd float32, gamma, dgamma, dbeta []float32) {
	n := float32(len(x))
	// xhat_i = (x_i - mean) * invStd
	var sumDyG, sumDyGXhat float32
	for i := range x {
		xhat := (x[i] - mean) * invStd
		g := dy[i] * gamma[i]
		sumDyG += g
		sumDyGXhat += g * xhat
		dgamma[i] += dy[i] * xhat
		dbeta[i] += dy[i]
	}
	for i := range x {
		xhat := (x[i] - mean) * invStd
		g := dy[i] * gamma[i]
		dx[i] = invStd * (g - sumDyG/n - xhat*sumDyGXhat/n)
	}
}

// GELUBackward computes dx[i] = dy[i] * gelu'(x[i]).
func GELUBackward(dx, dy, x []float32) {
	const c = 0.7978845608028654
	for i, v := range x {
		u := float64(v)
		t := math.Tanh(c * (u + 0.044715*u*u*u))
		d := 0.5*(1+t) + 0.5*u*(1-t*t)*c*(1+3*0.044715*u*u)
		dx[i] = dy[i] * float32(d)
	}
}

// Axpy computes y += a*x elementwise. Unrolled 4-wide; each element is an
// independent fused update, so the result is identical to the scalar loop.
func Axpy(y []float32, a float32, x []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	i := 0
	for ; i+4 <= len(y); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(y); i++ {
		y[i] += a * x[i]
	}
}

// Dot returns ⟨x, y⟩. Unrolled 4-wide into a single accumulator with the
// adds kept as separate sequential statements, so the summation order — and
// therefore the float32 result — is bit-identical to the scalar loop.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s += x[i] * y[i]
		s += x[i+1] * y[i+1]
		s += x[i+2] * y[i+2]
		s += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Scale multiplies x by a elementwise.
func Scale(x []float32, a float32) {
	for i := range x {
		x[i] *= a
	}
}

// Arena carves float32 scratch buffers out of one contiguous allocation.
// Batched decoding sizes its whole working set up front (KV caches, per-step
// activations, logits) and allocates it in a single slab, so the allocation
// count per batch stays O(1) no matter how many lanes the batch has.
type Arena struct {
	buf []float32
	off int
}

// NewArena allocates an arena holding n float32s, all zero.
func NewArena(n int) *Arena {
	if n < 0 {
		panic(fmt.Sprintf("tensor: NewArena(%d)", n))
	}
	return &Arena{buf: make([]float32, n)}
}

// Alloc returns the next n float32s of the slab, handed out exactly once;
// they are zero when the arena is new, but an owner that keeps them across
// uses (a reused BatchSession) must not assume so. Panics if the arena was
// sized too small — that is a programming error, not a runtime condition.
func (a *Arena) Alloc(n int) []float32 {
	if n < 0 || a.off+n > len(a.buf) {
		panic(fmt.Sprintf("tensor: Arena.Alloc(%d) with %d of %d used", n, a.off, len(a.buf)))
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Remaining reports how many float32s are still unallocated.
func (a *Arena) Remaining() int { return len(a.buf) - a.off }

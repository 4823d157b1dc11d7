package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// At returns element (i, j).
func (m *Mat) At(i, j int) float32 { return m.W[i*m.C+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float32) { m.W[i*m.C+j] = v }

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

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := NewMat(2, 2)
	MatMul(c, a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.W[i] != v {
			t.Errorf("c[%d] = %v, want %v", i, c.W[i], v)
		}
	}
}

func TestMatMulDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch should panic")
		}
	}()
	MatMul(NewMat(2, 2), NewMat(2, 3), NewMat(2, 2))
}

// The scalar loops MatMul, MatMulAddTransB and MatMulAddTransA were before
// they became MatAccum calls, kept verbatim as the references the kernel
// versions must match bit for bit.

func refMatMul(dst, a, b *Mat) {
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

func refMatMulAddTransB(dst, a, b *Mat) {
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

func refMatMulAddTransA(dst, a, b *Mat) {
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

func transpose(m *Mat) *Mat {
	out := NewMat(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j := 0; j < m.C; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// TestMatMulVariantsAgainstReference holds the three training products to
// their scalar loops bit for bit, across MatAccum's tile edges (row pairs and
// the odd row, 16-, 4- and scalar-column residues, k = 0). A carries +0, −0
// and denormals, which the references skip or multiply and the kernel always
// multiplies; B is finite and the accumulating products start from a
// non-zero dst — the preconditions under which skipping and adding the ±0
// product agree.
func TestMatMulVariantsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mat := func(r, c int) *Mat {
		x := NewMat(r, c)
		tameOperands(rng, x.W)
		return x
	}
	start := func(r, c int) *Mat { // normals: never −0
		x := NewMat(r, c)
		x.Randn(rng, 1)
		return x
	}
	check := func(name string, n, k, m int, got, want *Mat) {
		t.Helper()
		for i := range want.W {
			if math.Float32bits(got.W[i]) != math.Float32bits(want.W[i]) {
				t.Fatalf("%s n=%d k=%d m=%d: [%d] = %v (%#08x), reference %v (%#08x)", name, n, k, m, i,
					got.W[i], math.Float32bits(got.W[i]), want.W[i], math.Float32bits(want.W[i]))
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 33} {
		for _, k := range []int{0, 1, 2, 3, 48} {
			for _, m := range []int{1, 2, 3, 4, 15, 16, 17, 65} {
				// dst = A·B
				a, b := mat(n, k), mat(k, m)
				got, want := start(n, m), NewMat(n, m)
				MatMul(got, a, b)
				refMatMul(want, a, b)
				check("MatMul", n, k, m, got, want)

				// dst += A·Bᵀ, B passed as Bᵀ
				b = mat(m, k)
				want = start(n, m)
				got = want.Clone()
				MatMulAddTransB(got, a, transpose(b), make([]float32, n*m))
				refMatMulAddTransB(want, a, b)
				check("MatMulAddTransB", n, k, m, got, want)

				// dst += Aᵀ·B for A (k×n)
				a, b = mat(k, n), mat(k, m)
				want = start(n, m)
				got = want.Clone()
				MatMulAddTransA(got, a, b, make([]float32, k*n))
				refMatMulAddTransA(want, a, b)
				check("MatMulAddTransA", n, k, m, got, want)
			}
		}
	}
}

func TestAddRowSumRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddRow(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i := range want {
		if m.W[i] != want[i] {
			t.Errorf("AddRow[%d] = %v", i, m.W[i])
		}
	}
	v := make([]float32, 3)
	SumRowsInto(v, m)
	if v[0] != 25 || v[1] != 47 || v[2] != 69 {
		t.Errorf("SumRowsInto = %v", v)
	}
}

func TestSoftmaxRow(t *testing.T) {
	x := []float32{1, 2, 3}
	SoftmaxRow(x)
	var sum float32
	for _, v := range x {
		sum += v
	}
	if !approxEq(float64(sum), 1, 1e-5) {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(x[2] > x[1] && x[1] > x[0]) {
		t.Errorf("softmax not monotone: %v", x)
	}
	// Extreme values must not overflow.
	y := []float32{1000, -1000, 999}
	SoftmaxRow(y)
	for _, v := range y {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Errorf("softmax overflow: %v", y)
		}
	}
}

// numGrad computes a central-difference numeric gradient of f at x[i].
func numGrad(f func() float64, x []float32, i int) float64 {
	const h = 1e-3
	orig := x[i]
	x[i] = orig + h
	fp := f()
	x[i] = orig - h
	fm := f()
	x[i] = orig
	return (fp - fm) / (2 * h)
}

func TestSoftmaxBackwardNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 5
	x := make([]float32, n)
	dy := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		dy[i] = float32(rng.NormFloat64())
	}
	// loss = <dy, softmax(x)>
	loss := func() float64 {
		p := append([]float32(nil), x...)
		SoftmaxRow(p)
		var s float64
		for i := range p {
			s += float64(dy[i] * p[i])
		}
		return s
	}
	p := append([]float32(nil), x...)
	SoftmaxRow(p)
	dx := make([]float32, n)
	SoftmaxBackwardRow(dx, dy, p)
	for i := 0; i < n; i++ {
		want := numGrad(loss, x, i)
		if !approxEq(float64(dx[i]), want, 1e-2) {
			t.Errorf("softmax grad[%d] = %v, numeric %v", i, dx[i], want)
		}
	}
}

func TestLayerNormNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 6
	x := make([]float32, n)
	gamma := make([]float32, n)
	beta := make([]float32, n)
	dy := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		gamma[i] = 1 + float32(rng.NormFloat64())*0.1
		beta[i] = float32(rng.NormFloat64()) * 0.1
		dy[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		out := make([]float32, n)
		LayerNormRow(out, x, gamma, beta)
		var s float64
		for i := range out {
			s += float64(dy[i] * out[i])
		}
		return s
	}
	out := make([]float32, n)
	mean, invStd := LayerNormRow(out, x, gamma, beta)
	dx := make([]float32, n)
	dgamma := make([]float32, n)
	dbeta := make([]float32, n)
	LayerNormBackwardRow(dx, dy, x, mean, invStd, gamma, dgamma, dbeta)
	for i := 0; i < n; i++ {
		if want := numGrad(loss, x, i); !approxEq(float64(dx[i]), want, 2e-2) {
			t.Errorf("LN dx[%d] = %v, numeric %v", i, dx[i], want)
		}
		if want := numGrad(loss, gamma, i); !approxEq(float64(dgamma[i]), want, 2e-2) {
			t.Errorf("LN dgamma[%d] = %v, numeric %v", i, dgamma[i], want)
		}
		if want := numGrad(loss, beta, i); !approxEq(float64(dbeta[i]), want, 2e-2) {
			t.Errorf("LN dbeta[%d] = %v, numeric %v", i, dbeta[i], want)
		}
	}
}

func TestGELUNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 8
	x := make([]float32, n)
	dy := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64()) * 2
		dy[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		out := make([]float32, n)
		GELU(out, x)
		var s float64
		for i := range out {
			s += float64(dy[i] * out[i])
		}
		return s
	}
	dx := make([]float32, n)
	GELUBackward(dx, dy, x)
	for i := 0; i < n; i++ {
		if want := numGrad(loss, x, i); !approxEq(float64(dx[i]), want, 1e-2) {
			t.Errorf("GELU dx[%d] = %v, numeric %v", i, dx[i], want)
		}
	}
}

func TestGELUValues(t *testing.T) {
	out := make([]float32, 3)
	GELU(out, []float32{0, 10, -10})
	if out[0] != 0 {
		t.Errorf("gelu(0) = %v", out[0])
	}
	if !approxEq(float64(out[1]), 10, 1e-3) {
		t.Errorf("gelu(10) = %v", out[1])
	}
	if !approxEq(float64(out[2]), 0, 1e-3) {
		t.Errorf("gelu(-10) = %v", out[2])
	}
}

func TestAxpyScale(t *testing.T) {
	y := []float32{1, 2}
	Axpy(y, 2, []float32{3, 4})
	if y[0] != 7 || y[1] != 10 {
		t.Errorf("Axpy = %v", y)
	}
	x := []float32{2, 4}
	Scale(x, 0.5)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("Scale = %v", x)
	}
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Error("Set/At")
	}
	r := m.Row(1)
	if r[2] != 5 {
		t.Error("Row view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone must not alias")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Error("Zero")
	}
}

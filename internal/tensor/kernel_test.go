package tensor

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// This file holds the hot kernels to their definitions bit for bit:
// MatAccum to the Go loop matAccumGeneric, GELU to the float64 tanh
// expression geluRef and its SSE2 pairs to the Go loop geluGeneric, and
// SoftmaxRow's expFast to math.Exp. No comparison has a tolerance.

// wildOperands draws floats that stress the arithmetic, not just the
// indexing: signed zeros, denormals, infinities and magnitudes whose products
// and sums overflow or cancel.
func wildOperands(rng *rand.Rand, s []float32) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.MaxFloat32, -math.MaxFloat32, 3e38, 1e30, -1e30, 1e-30,
	}
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = special[rng.Intn(len(special))]
		case 1:
			s[i] = math.Float32frombits(rng.Uint32()&^0x7f800000 | uint32(rng.Intn(255))<<23) // any finite exponent
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// tameOperands draws normals with an occasional signed zero or denormal: a
// long sum of wild operands is almost always Inf or NaN, so most outputs
// would check nothing about rounding.
func tameOperands(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(32) {
		case 0:
			s[i] = float32(math.Copysign(0, -rng.NormFloat64()))
		case 1:
			s[i] = float32(rng.NormFloat64() * 1e-39)
		default:
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// sameFloats reports whether got and want agree bit for bit, except that a
// NaN matches any NaN: SSE and Go may propagate different NaN payloads.
func sameFloats(got, want float32) bool {
	if want != want {
		return got != got
	}
	return math.Float32bits(got) == math.Float32bits(want)
}

// TestMatAccumMatchesGeneric holds the amd64 kernel to the Go loop on every
// tile path: rows 0–5 (pairs and the odd row), in 0–70, out 0–70 (every
// 16-, 4- and scalar-column residue) plus the served 192 and 256, weight
// strides equal to and past out, and start offsets of 0–3 floats on each
// operand. The whole y buffer, guard floats on both sides included, must
// match, so a write outside the tile fails too.
func TestMatAccumMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const poolLen = 1 << 16
	var pools [2][]float32 // tame, wild
	for i, fill := range []func(*rand.Rand, []float32){tameOperands, wildOperands} {
		pools[i] = make([]float32, poolLen)
		fill(rng, pools[i])
	}
	// draw returns n floats starting off floats past a 4-float boundary of a
	// pool: the tame one two times in three.
	draw := func(n, off int) []float32 {
		pool := pools[0]
		if rng.Intn(3) == 0 {
			pool = pools[1]
		}
		at := rng.Intn((poolLen-n-4)/4)*4 + off
		return pool[at : at+n]
	}
	outs := []int{192, 256}
	for out := 0; out <= 70; out++ {
		outs = append(outs, out)
	}
	const guard = 4
	trial := 0
	for rows := 0; rows <= 5; rows++ {
		for in := 0; in <= 70; in++ {
			for _, out := range outs {
				trial++
				wstride := out
				if trial%3 != 0 {
					wstride += 1 + rng.Intn(9)
				}
				yOff, xOff, wOff := trial%4, trial/4%4, trial/16%4
				wlen := 0
				if in > 0 {
					wlen = (in-1)*wstride + out
				}
				x, w := draw(rows*in, xOff), draw(wlen, wOff)
				ybuf := draw(guard+yOff+rows*out+guard, 0)
				want := append([]float32(nil), ybuf...)
				got := append([]float32(nil), ybuf...)
				matAccumGeneric(want[guard+yOff:], x, w, rows, in, out, wstride)
				MatAccum(got[guard+yOff:guard+yOff+rows*out], x, w, rows, in, out, wstride)
				for i := range want {
					if !sameFloats(got[i], want[i]) {
						t.Fatalf("rows=%d in=%d out=%d wstride=%d off=%d/%d/%d: y buffer [%d] = %v (%#08x), generic %v (%#08x)",
							rows, in, out, wstride, yOff, xOff, wOff, i,
							got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestMatAccumShortOperandsPanic: every operand too short for its dims, every
// negative argument and every size product that would overflow panics in
// the wrapper, before the kernel reads through a raw pointer.
func TestMatAccumShortOperandsPanic(t *testing.T) {
	for _, tc := range []struct{ ylen, xlen, wlen, rows, in, out, wstride int }{
		{9, 6, 19, 2, 3, 5, 7},  // y one short of rows·out
		{10, 5, 19, 2, 3, 5, 7}, // x one short of rows·in
		{10, 6, 18, 2, 3, 5, 7}, // w one short of (in−1)·wstride + out
		{10, 2, 4, 2, 1, 5, 0},  // in = 1: w shorter than out
		{10, 6, 19, -1, 3, 5, 7},
		{10, 6, 19, 2, -1, 5, 7},
		{10, 6, 19, 2, 3, -1, 7},
		{10, 6, 19, 2, 3, 5, -1},
		{10, 6, 64, 2, 3, 5, 1 << 62}, // (in−1)·wstride overflows
		{10, 6, 19, 1 << 62, 3, 4, 7}, // rows·out overflows
		{10, 6, 19, 2, 1 << 62, 5, 7}, // rows·in overflows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MatAccum%+v did not panic", tc)
				}
			}()
			MatAccum(make([]float32, tc.ylen), make([]float32, tc.xlen), make([]float32, tc.wlen),
				tc.rows, tc.in, tc.out, tc.wstride)
		}()
	}
	// Nothing to do, nothing to read: no operand is needed.
	MatAccum(nil, nil, nil, 0, 0, 0, 0)
	MatAccum(nil, make([]float32, 6), nil, 2, 3, 0, 9)
	y := []float32{1, 2}
	MatAccum(y, nil, nil, 1, 0, 2, 5)
	if y[0] != 1 || y[1] != 2 {
		t.Errorf("in = 0 changed y to %v", y)
	}
}

var geluFull = flag.Bool("gelufull", false, "TestGELUMatchesReference sweeps all 2^32 float32 bit patterns (≈ 80 s on 2 cores)")

// geluMismatches runs GELU over the given bit patterns and counts those whose
// result is not bit-equal to the rounded reference (NaN inputs take the
// reference path, so even their payloads must agree). The first one found
// fails the test with its values; the caller reports the total.
func geluMismatches(t *testing.T, bits []uint32, x, out []float32) (bad uint64) {
	for i, b := range bits {
		x[i] = math.Float32frombits(b)
	}
	GELU(out[:len(bits)], x[:len(bits)])
	for i, b := range bits {
		want := float32(geluRef(float64(x[i])))
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			if bad++; !t.Failed() {
				t.Errorf("GELU(%#08x = %g) = %#08x, reference %#08x", b, x[i], math.Float32bits(out[i]), math.Float32bits(want))
			}
		}
	}
	return bad
}

// TestGELUMatchesReference is the proof that the table-driven GELU is exact:
// GELU is a function of 32 bits, so it is compared with the reference on the
// inputs themselves — with -gelufull (make verify, CI) on all 2³² of them, and
// in tier-1 on every 251st bit pattern (17 M) plus every pattern within 2 ulp
// of a place where the evaluation changes branch or table row.
func TestGELUMatchesReference(t *testing.T) {
	const batch = 1 << 12
	stride := uint64(251)
	if *geluFull {
		stride = 1
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var patterns, mismatches uint64
	span := (uint64(1)<<32 + uint64(workers) - 1) / uint64(workers)
	for w := 0; w < workers; w++ {
		lo, hi := uint64(w)*span, min(uint64(w+1)*span, 1<<32)
		lo = (lo + stride - 1) / stride * stride
		wg.Add(1)
		go func() {
			defer wg.Done()
			bits := make([]uint32, 0, batch)
			x, out := make([]float32, batch), make([]float32, batch)
			var n, bad uint64
			for b := lo; b < hi; {
				bits = bits[:0]
				for ; b < hi && len(bits) < batch; b += stride {
					bits = append(bits, uint32(b))
				}
				n += uint64(len(bits))
				bad += geluMismatches(t, bits, x, out)
			}
			mu.Lock()
			patterns, mismatches = patterns+n, mismatches+bad
			mu.Unlock()
		}()
	}
	wg.Wait()

	if !*geluFull {
		// The seams a strided sweep could step over: table knots (±geluMax
		// among them), ±geluMin, and the ends of the float32 line.
		edges := []float32{0, geluMin, math.SmallestNonzeroFloat32, math.MaxFloat32, float32(math.Inf(1)), float32(math.NaN())}
		for k := 0; k <= geluMax*geluPerUnit; k++ {
			edges = append(edges, float32(k)/geluPerUnit)
		}
		var bits []uint32
		for _, e := range edges {
			for d := -2; d <= 2; d++ {
				b := math.Float32bits(e) + uint32(d)
				bits = append(bits, b, b^0x80000000)
			}
		}
		patterns += uint64(len(bits))
		mismatches += geluMismatches(t, bits, make([]float32, len(bits)), make([]float32, len(bits)))
	}
	t.Logf("%d patterns, %d mismatches", patterns, mismatches)
	if mismatches > 0 {
		t.Fail()
	}
}

// TestGELUPairsMatchScalar holds GELU — on amd64 the SSE2 pair kernel with
// geluGeneric taking the pairs it refuses — to geluGeneric itself, at every
// length 0–9 and start offsets of 0–3 floats, on inputs that mix in-range
// values with NaN, ±Inf, ±0, subnormals, ±geluMin, ±geluMax and their
// neighbours, so that pairs with only one element in range occur in both
// orders. Guard floats around out must stay untouched, and a call in place
// (out = x) must write what a call out of place does.
func TestGELUPairsMatchScalar(t *testing.T) {
	edge := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-40,
		geluMin, -geluMin, math.Nextafter32(geluMin, 0), -math.Nextafter32(geluMin, 1),
		geluMax, -geluMax, math.Nextafter32(geluMax, 0), -math.Nextafter32(geluMax, 0),
	}
	rng := rand.New(rand.NewSource(23))
	draw := func() float32 {
		if rng.Intn(3) == 0 {
			return edge[rng.Intn(len(edge))]
		}
		return float32(rng.NormFloat64() * 2)
	}
	const guard = 2
	check := func(x []float32) {
		t.Helper()
		n := len(x)
		want := make([]float32, n)
		geluGeneric(want, x)
		for off := 0; off < 4; off++ {
			buf := make([]float32, guard+off+n+guard)
			for i := range buf {
				buf[i] = -7
			}
			GELU(buf[guard+off:guard+off+n], x)
			inPlace := make([]float32, off+n)
			copy(inPlace[off:], x)
			GELU(inPlace[off:], inPlace[off:])
			for i := range buf {
				w := float32(-7)
				if i >= guard+off && i < guard+off+n {
					w = want[i-guard-off]
				}
				if math.Float32bits(buf[i]) != math.Float32bits(w) {
					t.Fatalf("x=%v off=%d: out buffer [%d] = %#08x, scalar %#08x", x, off, i, math.Float32bits(buf[i]), math.Float32bits(w))
				}
			}
			for i, w := range want {
				if math.Float32bits(inPlace[off+i]) != math.Float32bits(w) {
					t.Fatalf("x=%v off=%d: in place [%d] = %#08x, scalar %#08x", x, off, i, math.Float32bits(inPlace[off+i]), math.Float32bits(w))
				}
			}
		}
	}
	// Every edge value beside an in-range one, in both orders, at an even
	// and an odd position.
	for _, e := range edge {
		for _, x := range [][]float32{{e, 0.75}, {0.75, e}, {1.5, e, -0.25}, {1.5, -0.25, e}} {
			check(x)
		}
	}
	for trial := 0; trial < 300; trial++ {
		for n := 0; n <= 9; n++ {
			x := make([]float32, n)
			for i := range x {
				x[i] = draw()
			}
			check(x)
		}
	}
}

var expFull = flag.Bool("expfull", false, "TestExpMatchesMathExp sweeps all 2^31 non-positive float32s (≈ 30 s on 2 cores)")

// expMismatches runs expFast over the given bit patterns and counts the
// inputs in its range [expMin, 0], those it takes and those whose result is
// not bit-equal to float32(math.Exp(float64(x))). The inputs it refuses go
// to math.Exp itself, so they need no check.
func expMismatches(t *testing.T, bits []uint32) (inRange, fast, bad uint64) {
	for _, b := range bits {
		x := math.Float32frombits(b)
		if x >= expMin && x <= 0 {
			inRange++
		}
		got, ok := expFast(x)
		if !ok {
			continue
		}
		fast++
		if want := float32(math.Exp(float64(x))); math.Float32bits(got) != math.Float32bits(want) {
			if bad++; !t.Failed() {
				t.Errorf("expFast(%#08x = %g) = %#08x, math.Exp %#08x", b, x, math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
	return inRange, fast, bad
}

// TestExpMatchesMathExp is the proof that SoftmaxRow's exponential is
// exact: with -expfull (make verify, CI) on all 2³¹ float32s whose sign bit
// is set — every argument SoftmaxRow can pass but +0 — and in tier-1 on
// every 251st of them plus every pattern within 2 ulp of a place where the
// evaluation changes branch or table entry. It logs the share of the
// inputs in [expMin, 0] that the fast path takes; the rest go to math.Exp.
func TestExpMatchesMathExp(t *testing.T) {
	const batch = 1 << 12
	stride := uint64(251)
	if *expFull {
		stride = 1
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var patterns, inRange, fast, mismatches uint64
	span := (uint64(1)<<31 + uint64(workers) - 1) / uint64(workers)
	for w := 0; w < workers; w++ {
		lo, hi := uint64(w)*span, min(uint64(w+1)*span, 1<<31)
		lo = (lo + stride - 1) / stride * stride
		wg.Add(1)
		go func() {
			defer wg.Done()
			bits := make([]uint32, 0, batch)
			var n, in, f, bad uint64
			for b := lo; b < hi; {
				bits = bits[:0]
				for ; b < hi && len(bits) < batch; b += stride {
					bits = append(bits, uint32(b)|0x80000000)
				}
				n += uint64(len(bits))
				bi, bf, bb := expMismatches(t, bits)
				in, f, bad = in+bi, f+bf, bad+bb
			}
			mu.Lock()
			patterns, inRange, fast, mismatches = patterns+n, inRange+in, fast+f, mismatches+bad
			mu.Unlock()
		}()
	}
	wg.Wait()

	if !*expFull {
		// The seams: expMin, the points where the nearest k changes
		// (u·32/ln2 = j + ½), 0, the smallest subnormal, −Inf and NaN; +0 too.
		edges := []float32{expMin, 0, math.SmallestNonzeroFloat32, float32(math.Inf(1)), float32(math.NaN())}
		for j := 0; j < 32*128; j++ {
			edges = append(edges, float32((float64(j)+0.5)*math.Ln2/32))
		}
		var bits []uint32
		for _, e := range edges {
			for d := -2; d <= 2; d++ {
				bits = append(bits, (math.Float32bits(e)+uint32(d))|0x80000000)
			}
		}
		bits = append(bits, 0)
		in, f, bad := expMismatches(t, bits)
		patterns, inRange, fast, mismatches = patterns+uint64(len(bits)), inRange+in, fast+f, mismatches+bad
	}
	t.Logf("%d patterns, %d in [expMin, 0], fast path %d of them (%.4f %%), %d mismatches",
		patterns, inRange, fast, 100*float64(fast)/float64(inRange), mismatches)
	if mismatches > 0 {
		t.Fail()
	}
}

// BenchmarkMatAccum times one kernel call at the decode model's shapes (dim
// 64, 4 heads, Ctx 48): the q/k/v/output projections (64→64), the MLP up-
// (64→256) and down-projection (256→64) at 1 row (solo decode), 2 (the
// smallest pair tile) and 32 (a full lock-step batch); then one head's
// attention scores over the key-transposed cache (in 16, out t+1, weight
// stride Ctx) and its value sum (in t+1, out 16). generic is the Go loop,
// kernel what MatAccum dispatches to on this GOARCH.
func BenchmarkMatAccum(b *testing.B) {
	const dh, ctx = 16, 48
	type shape struct {
		name                   string
		rows, in, out, wstride int
	}
	var shapes []shape
	for _, io := range [][2]int{{64, 64}, {64, 256}, {256, 64}} {
		for _, rows := range []int{1, 2, 32} {
			shapes = append(shapes, shape{fmt.Sprintf("%dx%d_rows%d", io[0], io[1], rows), rows, io[0], io[1], io[1]})
		}
	}
	for _, n := range []int{1, 16, 47} {
		shapes = append(shapes,
			shape{fmt.Sprintf("score_t%d", n), 1, dh, n, ctx},
			shape{fmt.Sprintf("value_t%d", n), 1, n, dh, dh})
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(1))
		x := make([]float32, sh.rows*sh.in)
		w := make([]float32, (sh.in-1)*sh.wstride+sh.out)
		y := make([]float32, sh.rows*sh.out)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range w {
			w[i] = float32(rng.NormFloat64()) * 0.02
		}
		for _, k := range []struct {
			name string
			fn   func(y, x, w []float32, rows, in, out, wstride int)
		}{{"generic", matAccumGeneric}, {"kernel", MatAccum}} {
			b.Run(sh.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(y)
					k.fn(y, x, w, sh.rows, sh.in, sh.out, sh.wstride)
				}
			})
		}
	}
}

// BenchmarkGELU times one lock-step step's worth of MLP activations (32 lanes
// × 256) at roughly the spread the trained model's pre-activations have:
// reference is geluRef per element, scalar the Go loop geluGeneric, GELU what
// this GOARCH dispatches to.
func BenchmarkGELU(b *testing.B) {
	const n = 8192
	rng := rand.New(rand.NewSource(2))
	x, out := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 1.5)
	}
	perElement := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/element")
	}
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range x {
				out[j] = float32(geluRef(float64(v)))
			}
		}
		perElement(b)
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			geluGeneric(out, x)
		}
		perElement(b)
	})
	b.Run("GELU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GELU(out, x)
		}
		perElement(b)
	})
}

// softmaxRowMathExp is SoftmaxRow with math.Exp, as it was before exp32.
func softmaxRowMathExp(x []float32) {
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

// BenchmarkSoftmaxRow times the attention softmax over score rows of the
// lengths a served lane sees (1, 16 and 47 positions, scores of the spread
// a trained model's have): mathexp is the row with math.Exp, SoftmaxRow the
// one with exp32.
func BenchmarkSoftmaxRow(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float32, 48)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 2)
	}
	x := make([]float32, len(src))
	for _, n := range []int{1, 16, 47} {
		for _, k := range []struct {
			name string
			fn   func([]float32)
		}{{"mathexp", softmaxRowMathExp}, {"SoftmaxRow", SoftmaxRow}} {
			b.Run(fmt.Sprintf("len%d/%s", n, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(x, src[:n])
					k.fn(x[:n])
				}
			})
		}
	}
}

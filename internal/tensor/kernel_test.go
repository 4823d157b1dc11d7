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

// This file holds the two hot kernels to their definitions bit for bit:
// Accum4 to the Go loop accum4Generic, GELU to the float64 tanh expression
// geluRef. Neither comparison has a tolerance.

// accum4Operands draws floats that stress the arithmetic, not just the
// indexing: signed zeros, denormals, infinities and magnitudes whose products
// and sums overflow or cancel.
func accum4Operands(rng *rand.Rand, s []float32) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
		float32(math.Inf(1)), float32(math.Inf(-1)),
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

func TestAccum4MatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(301)
		if trial <= 300 {
			n = trial // every length, so every tail residue, at least once
		}
		stride := n + rng.Intn(9)
		yOff, wOff := trial%8, trial/8%8 // unaligned starts, all 64 pairs
		ybuf := make([]float32, yOff+n)
		wbuf := make([]float32, wOff+3*stride+n)
		accum4Operands(rng, ybuf)
		accum4Operands(rng, wbuf)
		var xs [4]float32
		accum4Operands(rng, xs[:])
		y, w := ybuf[yOff:], wbuf[wOff:]

		want := append([]float32(nil), y...)
		accum4Generic(want, w, stride, xs[0], xs[1], xs[2], xs[3])
		Accum4(y, w, stride, xs[0], xs[1], xs[2], xs[3])
		for j := range want {
			g, r := y[j], want[j]
			if r != r {
				if g == g {
					t.Fatalf("n=%d stride=%d off=%d/%d j=%d: got %v, generic NaN", n, stride, yOff, wOff, j, g)
				}
			} else if math.Float32bits(g) != math.Float32bits(r) {
				t.Fatalf("n=%d stride=%d off=%d/%d j=%d: got %v (%#08x), generic %v (%#08x)",
					n, stride, yOff, wOff, j, g, math.Float32bits(g), r, math.Float32bits(r))
			}
		}
	}
}

func TestAccum4ShortWeightsPanic(t *testing.T) {
	for _, tc := range []struct{ n, stride, wlen int }{
		{8, 8, 31}, {5, 7, 25}, {1, 0, 0}, {4, -1, 64}, {4, 1 << 62, 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Accum4(n=%d, stride=%d, len(w)=%d) did not panic", tc.n, tc.stride, tc.wlen)
				}
			}()
			Accum4(make([]float32, tc.n), make([]float32, tc.wlen), tc.stride, 1, 1, 1, 1)
		}()
	}
	Accum4(nil, nil, 8, 1, 1, 1, 1) // nothing to do, nothing to read
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

// BenchmarkAccum4 times the GEMM loop nest of nn.matLinear around the kernel,
// at the decode model's shapes: the MLP up- and down-projection at one row
// (solo decode) and 32 (a full lock-step batch). generic is the Go loop,
// kernel what Accum4 dispatches to on this GOARCH.
func BenchmarkAccum4(b *testing.B) {
	for _, sh := range []struct{ in, out, rows int }{
		{64, 256, 1}, {64, 256, 32},
		{256, 64, 1}, {256, 64, 32},
	} {
		rng := rand.New(rand.NewSource(1))
		x, w, y := make([]float32, sh.rows*sh.in), make([]float32, sh.in*sh.out), make([]float32, sh.rows*sh.out)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range w {
			w[i] = float32(rng.NormFloat64()) * 0.02
		}
		name := fmt.Sprintf("%dx%d_rows%d", sh.in, sh.out, sh.rows)
		for _, k := range []struct {
			name string
			fn   func(y, w []float32, stride int, x0, x1, x2, x3 float32)
		}{{"generic", accum4Generic}, {"kernel", Accum4}} {
			b.Run(name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(y)
					for p := 0; p+4 <= sh.in; p += 4 {
						blk := w[p*sh.out:]
						for r := 0; r < sh.rows; r++ {
							xr := x[r*sh.in:]
							k.fn(y[r*sh.out:(r+1)*sh.out], blk, sh.out, xr[p], xr[p+1], xr[p+2], xr[p+3])
						}
					}
				}
			})
		}
	}
}

// BenchmarkGELU times one lock-step step's worth of MLP activations (32 lanes
// × 256) at roughly the spread the trained model's pre-activations have.
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
	b.Run("GELU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GELU(out, x)
		}
		perElement(b)
	})
}

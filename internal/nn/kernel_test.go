package nn

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/tensor"
)

// This file pins the per-token kernels (the tensor.MatAccum register tiles
// for projections and attention, 4-wide Dot, table-driven GELU, the
// key-transposed paged KV cache, partial Clone) to the seed implementation:
// refSession.Append below is the seed's Session.Append copied verbatim (over
// [Ctx, D] row-major caches, the zero-skipping scalar vecLinear and the
// math.Tanh GELU), and the golden tests require bit-identical logits, not
// just close ones. The
// kernels keep one accumulator per output and add terms in ascending input
// order, so identical floats are the contract, not an accident.

// refSession is the seed Session: per-layer [Ctx, D] caches, token-major.
type refSession struct {
	m      *Model
	pos    int
	ks, vs []*tensor.Mat
	logits []float32

	x, ln, q, attn, proj, mlp []float32
	hbuf, hg                  []float32
	p                         []float32
}

func newRefSession(m *Model) *refSession {
	s := &refSession{m: m, logits: make([]float32, m.Cfg.Vocab)}
	s.ks = make([]*tensor.Mat, m.Cfg.Layers)
	s.vs = make([]*tensor.Mat, m.Cfg.Layers)
	for l := range s.ks {
		s.ks[l] = tensor.NewMat(m.Cfg.Ctx, m.Cfg.Dim)
		s.vs[l] = tensor.NewMat(m.Cfg.Ctx, m.Cfg.Dim)
	}
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	s.x = make([]float32, d)
	s.ln = make([]float32, d)
	s.q = make([]float32, d)
	s.attn = make([]float32, d)
	s.proj = make([]float32, d)
	s.mlp = make([]float32, d)
	s.hbuf = make([]float32, f)
	s.hg = make([]float32, f)
	s.p = make([]float32, m.Cfg.Ctx)
	return s
}

// refVecLinear is the seed vecLinear: scalar, with the per-input zero skip.
func refVecLinear(y, x, w, b []float32, in, out int) {
	copy(y, b[:out])
	for p := 0; p < in; p++ {
		xv := x[p]
		if xv == 0 {
			continue
		}
		row := w[p*out : (p+1)*out]
		for j := 0; j < out; j++ {
			y[j] += xv * row[j]
		}
	}
}

// refGELU is the seed GELU: math.Tanh in float64, one rounding. The reference
// keeps its own copy so that a drifting tensor.GELU moves only one side of
// the golden comparison.
func refGELU(out, x []float32) {
	const c = 0.7978845608028654 // sqrt(2/π)
	for i, v := range x {
		u := float64(v)
		out[i] = float32(0.5 * u * (1 + math.Tanh(c*(u+0.044715*u*u*u))))
	}
}

// refDot is the seed Dot: a plain scalar accumulation loop.
func refDot(x, y []float32) float32 {
	var s float32
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func (s *refSession) Append(tok int) {
	m := s.m
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	h := m.Cfg.Heads
	dh := d / h
	scale := float32(1 / math.Sqrt(float64(dh)))
	t := s.pos

	x := s.x
	copy(x, m.tok.W[tok*d:(tok+1)*d])
	pos := m.pos.W[t*d : (t+1)*d]
	for j := range x {
		x[j] += pos[j]
	}

	ln, q, attn := s.ln, s.q, s.attn
	hbuf, hg := s.hbuf, s.hg
	for l := range m.layers {
		ly := &m.layers[l]
		tensor.LayerNormRow(ln, x, ly.ln1g.W, ly.ln1b.W)

		krow := s.ks[l].Row(t)
		vrow := s.vs[l].Row(t)
		refVecLinear(q, ln, ly.wq.W, ly.bq.W, d, d)
		refVecLinear(krow, ln, ly.wk.W, ly.bk.W, d, d)
		refVecLinear(vrow, ln, ly.wv.W, ly.bv.W, d, d)

		for i := range attn {
			attn[i] = 0
		}
		for hd := 0; hd < h; hd++ {
			off := hd * dh
			qh := q[off : off+dh]
			p := s.p[:t+1]
			for j := 0; j <= t; j++ {
				p[j] = refDot(qh, s.ks[l].Row(j)[off:off+dh]) * scale
			}
			tensor.SoftmaxRow(p)
			out := attn[off : off+dh]
			for j := 0; j <= t; j++ {
				pj := p[j]
				vj := s.vs[l].Row(j)[off : off+dh]
				for i := range out {
					out[i] += pj * vj[i]
				}
			}
		}

		proj := s.proj
		refVecLinear(proj, attn, ly.wo.W, ly.bo.W, d, d)
		for j := range x {
			x[j] += proj[j]
		}

		tensor.LayerNormRow(ln, x, ly.ln2g.W, ly.ln2b.W)
		refVecLinear(hbuf, ln, ly.w1.W, ly.b1.W, d, f)
		refGELU(hg, hbuf)
		mlp := s.mlp
		refVecLinear(mlp, hg, ly.w2.W, ly.b2.W, f, d)
		for j := range x {
			x[j] += mlp[j]
		}
	}

	tensor.LayerNormRow(ln, x, m.lnfg.W, m.lnfb.W)
	for v := 0; v < m.Cfg.Vocab; v++ {
		s.logits[v] = refDot(ln, m.tok.W[v*d:(v+1)*d])
	}
	s.pos++
}

func goldenModel(t testing.TB, cfg Config, seed int64) *Model {
	t.Helper()
	m, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randSeq(rng *rand.Rand, n, vocab int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(vocab)
	}
	return seq
}

func compareLogitsBits(t *testing.T, got, want []float32, ctx string) {
	t.Helper()
	for v := range want {
		if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
			t.Fatalf("%s vocab %d: got %v (%#08x), seed %v (%#08x)",
				ctx, v, got[v], math.Float32bits(got[v]), want[v], math.Float32bits(want[v]))
		}
	}
}

// servedCfg is the geometry of the served decode model (dim 64, 4 heads, Ctx
// 48) at fewer layers: the only golden shape that runs full 16-column tiles
// at out 64 and 256 and attends across more than one KV page.
func servedCfg() Config { return Config{Vocab: 17, Ctx: 48, Dim: 64, Heads: 4, Layers: 2} }

// TestGoldenLogitsMatchSeed is the kernel rewrite's contract: logits after
// every Append must be bit-identical to the seed implementation — same
// floats, same bits — across several shapes (including dims not divisible
// by the 4-wide unroll, to cover the tail loops).
func TestGoldenLogitsMatchSeed(t *testing.T) {
	cfgs := []Config{
		{Vocab: 11, Ctx: 8, Dim: 8, Heads: 2, Layers: 2},
		{Vocab: 13, Ctx: 16, Dim: 24, Heads: 4, Layers: 3},
		{Vocab: 11, Ctx: 12, Dim: 6, Heads: 3, Layers: 2}, // dh=2, tail-heavy
		servedCfg(),
	}
	for ci, cfg := range cfgs {
		m := goldenModel(t, cfg, int64(100+ci))
		rng := rand.New(rand.NewSource(int64(ci)))
		seq := randSeq(rng, cfg.Ctx, cfg.Vocab)

		s := m.NewSession()
		r := newRefSession(m)
		for pos, tok := range seq {
			if err := s.Append(tok); err != nil {
				t.Fatal(err)
			}
			r.Append(tok)
			compareLogitsBits(t, s.Logits(), r.logits, t.Name())
			_ = pos
		}
	}
}

// TestGoldenCloneMatchesSeed forks sessions mid-sequence and requires the
// clone (which copies only the filled cache rows) to keep producing
// bit-identical logits on a divergent suffix.
func TestGoldenCloneMatchesSeed(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 16, Dim: 24, Heads: 4, Layers: 3}
	m := goldenModel(t, cfg, 41)
	rng := rand.New(rand.NewSource(9))
	prefix := randSeq(rng, 7, cfg.Vocab)

	s := m.NewSession()
	r := newRefSession(m)
	for _, tok := range prefix {
		if err := s.Append(tok); err != nil {
			t.Fatal(err)
		}
		r.Append(tok)
	}
	for branch := 0; branch < 3; branch++ {
		cs := s.Clone()
		cr := newRefSession(m)
		for l := range r.ks {
			cr.ks[l] = r.ks[l].Clone()
			cr.vs[l] = r.vs[l].Clone()
		}
		cr.pos = r.pos
		for _, tok := range randSeq(rng, cfg.Ctx-len(prefix), cfg.Vocab) {
			if err := cs.Append(tok); err != nil {
				t.Fatal(err)
			}
			cr.Append(tok)
			compareLogitsBits(t, cs.Logits(), cr.logits, "clone branch")
		}
	}
	// The original must be untouched by its clones' appends.
	if err := s.Append(1); err != nil {
		t.Fatal(err)
	}
	r.Append(1)
	compareLogitsBits(t, s.Logits(), r.logits, "original after branching")
}

// checkGemmMatchesSeed runs one random shape through matLinear and requires
// every output row bit-equal to the seed loop on that row alone.
func checkGemmMatchesSeed(t *testing.T, rng *rand.Rand, fill func(int) []float32, rows int) {
	t.Helper()
	in, out := 1+rng.Intn(33), 1+rng.Intn(33)
	x, w, b := fill(rows*in), fill(in*out), fill(out)
	want := make([]float32, rows*out)
	for r := 0; r < rows; r++ {
		refVecLinear(want[r*out:(r+1)*out], x[r*in:(r+1)*in], w, b, in, out)
	}
	y := make([]float32, rows*out)
	matLinear(y, x, w, b, in, out, rows)
	for j := range want {
		if math.Float32bits(y[j]) != math.Float32bits(want[j]) {
			t.Fatalf("rows=%d in=%d out=%d [%d]: got %v, seed %v", rows, in, out, j, y[j], want[j])
		}
	}
}

// seedFill draws normals with one value in eight zeroed, to exercise the
// seed loop's zero-skip branch that the kernels dropped.
func seedFill(rng *rand.Rand) func(int) []float32 {
	return func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			if rng.Intn(8) != 0 {
				s[i] = float32(rng.NormFloat64())
			}
		}
		return s
	}
}

// TestVecLinearMatchesSeed fuzzes the single-row kernels directly against the
// seed loops, including zero inputs (the removed skip branch) and lengths
// exercising every tail residue mod 4.
func TestVecLinearMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fill := seedFill(rng)
	for trial := 0; trial < 50; trial++ {
		checkGemmMatchesSeed(t, rng, fill, 1)

		in := 1 + rng.Intn(33)
		x, y := fill(in), fill(in)
		if g, w := tensor.Dot(x, y), refDot(x, y); math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("Dot len=%d: got %v, seed %v", in, g, w)
		}
		ya, yb := fill(in), make([]float32, in)
		copy(yb, ya)
		a := float32(rng.NormFloat64())
		tensor.Axpy(ya, a, x)
		for i := range yb {
			yb[i] += a * x[i]
		}
		for i := range ya {
			if ya[i] != yb[i] {
				t.Fatalf("Axpy len=%d i=%d: got %v, seed %v", in, i, ya[i], yb[i])
			}
		}
	}
}

// benchCfg is sized like the bench-scale decode model: big enough that the
// kernels dominate, small enough for -bench to converge quickly.
func benchCfg() Config { return Config{Vocab: 16, Ctx: 64, Dim: 64, Heads: 4, Layers: 4} }

func BenchmarkVecLinear(b *testing.B) {
	const in, out = 64, 256
	rng := rand.New(rand.NewSource(1))
	x, w, bias := make([]float32, in), make([]float32, in*out), make([]float32, out)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	y := make([]float32, out)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matLinear(y, x, w, bias, in, out, 1)
		}
	})
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refVecLinear(y, x, w, bias, in, out)
		}
	})
}

func BenchmarkDot(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(3))
	x, y := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	var sink float32
	b.Run("unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += tensor.Dot(x, y)
		}
	})
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += refDot(x, y)
		}
	})
	_ = sink
}

// BenchmarkAttentionInner times one lane's per-head score and value loops at
// the served geometry, for histories of 1, 16 and 47 positions, leaving out
// the softmax both share: matacc is attendLane's two MatAccum calls over the
// key-transposed cache, dotaxpy the per-position Dot and Axpy loop over a
// head-major key cache that it replaced.
func BenchmarkAttentionInner(b *testing.B) {
	cfg := servedCfg()
	ctx, d := cfg.Ctx, cfg.Dim
	dh := d / cfg.Heads
	const scale = 0.25
	rng := rand.New(rand.NewSource(4))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		return s
	}
	q, keysT, keysHead, vals := fill(d), fill(ctx*d), fill(ctx*d), fill(ctx*d)
	p, attn := make([]float32, ctx), make([]float32, d)
	for _, n := range []int{1, 16, 47} {
		b.Run("len"+strconv.Itoa(n)+"/matacc", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(attn)
				for off := 0; off < d; off += dh {
					clear(p[:n])
					tensor.MatAccum(p[:n], q[off:], keysT[off*ctx:], 1, dh, n, ctx)
					tensor.Scale(p[:n], scale)
					tensor.MatAccum(attn[off:off+dh], p[:n], vals[off*ctx:], 1, n, dh, dh)
				}
			}
		})
		b.Run("len"+strconv.Itoa(n)+"/dotaxpy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(attn)
				for off := 0; off < d; off += dh {
					kh, vh := keysHead[off*ctx:], vals[off*ctx:]
					for j := 0; j < n; j++ {
						p[j] = tensor.Dot(q[off:off+dh], kh[j*dh:j*dh+dh]) * scale
					}
					for j := 0; j < n; j++ {
						tensor.Axpy(attn[off:off+dh], p[j], vh[j*dh:j*dh+dh])
					}
				}
			}
		})
	}
}

// BenchmarkSessionAppend is a full-context fill: the rewritten Append must
// beat the seed implementation by ≥1.5x.
func BenchmarkSessionAppend(b *testing.B) {
	m := goldenModel(b, benchCfg(), 7)
	rng := rand.New(rand.NewSource(5))
	seq := randSeq(rng, m.Cfg.Ctx, m.Cfg.Vocab)
	b.Run("rewritten", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := m.NewSession()
			for _, tok := range seq {
				if err := s.Append(tok); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := newRefSession(m)
			for _, tok := range seq {
				s.Append(tok)
			}
		}
	})
}

func BenchmarkSessionClone(b *testing.B) {
	m := goldenModel(b, benchCfg(), 8)
	s := m.NewSession()
	// Clone at quarter fill — the typical beam-fork point.
	for i := 0; i < m.Cfg.Ctx/4; i++ {
		if err := s.Append(i % m.Cfg.Vocab); err != nil {
			b.Fatal(err)
		}
	}
	// share: the clone itself, which only retains page references — no KV
	// floats move, regardless of how full the session is.
	b.Run("share", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := s.Clone()
			c.Release()
		}
	})
	// fork: clone plus one divergent Append, which pays the copy-on-write
	// duplication of the shared partial page — the full cost of peeling a
	// beam (or a prefix-cache hit) off a live prefix.
	b.Run("fork", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := s.Clone()
			if err := c.Append(1); err != nil {
				b.Fatal(err)
			}
			c.Release()
		}
	})
}

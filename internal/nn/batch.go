package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LaneError reports that one lane of an AppendBatch call was invalid (token
// out of vocab, context length exceeded, bad or duplicate lane id). The call
// validates every lane before mutating any state, so on a LaneError the
// batch session is unchanged: the caller can drop the offending lane and
// retry with the rest.
type LaneError struct {
	Lane int
	Err  error
}

func (e *LaneError) Error() string { return fmt.Sprintf("nn: lane %d: %v", e.Lane, e.Err) }
func (e *LaneError) Unwrap() error { return e.Err }

// BatchSession steps up to n independent decoding sessions ("lanes") through
// the model in lock-step. Where Session.Append is a chain of matrix-vector
// products that stream every weight matrix from memory once per token per
// record, AppendBatch runs the active lanes through the same GEMM kernels
// (matLinear/matLinear3) with more rows, streaming each weight block once per
// token step for the whole batch — the per-lane arithmetic (and therefore
// the float32 result) is bit-identical to the one-row call.
//
// Lanes are ragged: each has its own position, and any subset may be
// advanced per call (records finish at different steps). All buffers — the
// batch-major KV caches and the per-step activation scratch — are carved
// from one tensor.Arena at construction, so a batch costs O(1) allocations
// regardless of lane count and AppendBatch allocates nothing.
//
// A BatchSession is not safe for concurrent use.
type BatchSession struct {
	m   *Model
	n   int
	pos []int // per-lane tokens consumed
	// Per-layer KV caches, batch-major then head-major: lane b's cache block
	// is kc[l][b*Ctx*Dim : (b+1)*Ctx*Dim] with the same head-major layout as
	// Session, so attention and CloneLane reuse the single-row code shape.
	kc, vc [][]float32
	logits []float32 // [n*Vocab], row lane*Vocab.. persists until the lane's next step
	// Compacted per-step activations: row r of each buffer belongs to the
	// r-th lane passed to the current AppendBatch call.
	x, ln, q, k, v, attn, proj, mlp []float32 // [n*Dim]
	hbuf, hg                        []float32 // [n*F]
	p                               []float32 // [Ctx] attention score row, reused lane by lane
	inStep                          []bool    // [n] duplicate-lane check scratch
}

// NewBatchSession creates a lock-step session with n lanes, all empty.
func (m *Model) NewBatchSession(n int) *BatchSession {
	if n < 1 {
		panic(fmt.Sprintf("nn: NewBatchSession(%d)", n))
	}
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	ctx := m.Cfg.Ctx
	cache := ctx * d
	a := tensor.NewArena(2*m.Cfg.Layers*n*cache + n*m.Cfg.Vocab + 8*n*d + 2*n*f + ctx)
	bs := &BatchSession{
		m:      m,
		n:      n,
		pos:    make([]int, n),
		kc:     make([][]float32, m.Cfg.Layers),
		vc:     make([][]float32, m.Cfg.Layers),
		inStep: make([]bool, n),
	}
	for l := range bs.kc {
		bs.kc[l] = a.Alloc(n * cache)
		bs.vc[l] = a.Alloc(n * cache)
	}
	bs.logits = a.Alloc(n * m.Cfg.Vocab)
	bs.x = a.Alloc(n * d)
	bs.ln = a.Alloc(n * d)
	bs.q = a.Alloc(n * d)
	bs.k = a.Alloc(n * d)
	bs.v = a.Alloc(n * d)
	bs.attn = a.Alloc(n * d)
	bs.proj = a.Alloc(n * d)
	bs.mlp = a.Alloc(n * d)
	bs.hbuf = a.Alloc(n * f)
	bs.hg = a.Alloc(n * f)
	bs.p = a.Alloc(ctx)
	return bs
}

// Lanes returns the lane count the session was created with.
func (bs *BatchSession) Lanes() int { return bs.n }

// Len reports the number of tokens lane has consumed.
func (bs *BatchSession) Len(lane int) int { return bs.pos[lane] }

// AppendBatch feeds toks[i] to lanes[i] for every i and computes each
// advanced lane's next-position logits. Every lane is validated before any
// state is mutated; an invalid lane aborts the whole call with a *LaneError
// and no side effects, so the caller can retire that lane and retry.
func (bs *BatchSession) AppendBatch(lanes, toks []int) error {
	m := bs.m
	if len(lanes) != len(toks) {
		return fmt.Errorf("nn: AppendBatch with %d lanes, %d tokens", len(lanes), len(toks))
	}
	rows := len(lanes)
	if rows == 0 {
		return nil
	}
	for i, lane := range lanes {
		var err error
		switch {
		case lane < 0 || lane >= bs.n:
			err = fmt.Errorf("nn: lane outside batch of %d", bs.n)
		case bs.inStep[lane]:
			err = fmt.Errorf("nn: lane appears twice in one step")
		case toks[i] < 0 || toks[i] >= m.Cfg.Vocab:
			err = fmt.Errorf("nn: token %d outside vocab %d", toks[i], m.Cfg.Vocab)
		case bs.pos[lane] >= m.Cfg.Ctx:
			err = fmt.Errorf("nn: context length %d exceeded", m.Cfg.Ctx)
		}
		if err != nil {
			for _, l := range lanes[:i] {
				bs.inStep[l] = false
			}
			return &LaneError{Lane: lane, Err: err}
		}
		bs.inStep[lane] = true
	}
	for _, lane := range lanes {
		bs.inStep[lane] = false
	}

	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	h := m.Cfg.Heads
	dh := d / h
	ctx := m.Cfg.Ctx
	scale := float32(1 / math.Sqrt(float64(dh)))

	// Embed each lane's token at its own position into the compacted rows.
	x := bs.x[:rows*d]
	for r, lane := range lanes {
		xr := x[r*d : (r+1)*d]
		copy(xr, m.tok.W[toks[r]*d:(toks[r]+1)*d])
		pw := m.pos.W[bs.pos[lane]*d : (bs.pos[lane]+1)*d]
		for j := range xr {
			xr[j] += pw[j]
		}
	}

	ln := bs.ln[:rows*d]
	q, k, v, attn := bs.q[:rows*d], bs.k[:rows*d], bs.v[:rows*d], bs.attn[:rows*d]
	proj, mlp := bs.proj[:rows*d], bs.mlp[:rows*d]
	hbuf, hg := bs.hbuf[:rows*f], bs.hg[:rows*f]
	for l := range m.layers {
		ly := &m.layers[l]
		for r := 0; r < rows; r++ {
			tensor.LayerNormRow(ln[r*d:(r+1)*d], x[r*d:(r+1)*d], ly.ln1g.W, ly.ln1b.W)
		}

		// One GEMM for all lanes' q/k/v: each weight block is read once.
		matLinear3(q, k, v, ln, ly.wq.W, ly.wk.W, ly.wv.W, ly.bq.W, ly.bk.W, ly.bv.W, d, d, rows)

		// Scatter k/v into each lane's head-major cache block.
		kcl, vcl := bs.kc[l], bs.vc[l]
		for r, lane := range lanes {
			t := bs.pos[lane]
			base := lane * ctx * d
			for hd := 0; hd < h; hd++ {
				dst := base + (hd*ctx+t)*dh
				copy(kcl[dst:dst+dh], k[r*d+hd*dh:r*d+(hd+1)*dh])
				copy(vcl[dst:dst+dh], v[r*d+hd*dh:r*d+(hd+1)*dh])
			}
		}

		// Attention is inherently per-lane: ragged positions mean each lane
		// attends over a different-length history of its own cache block.
		for r, lane := range lanes {
			bs.attendLane(kcl, vcl, q, attn, r, lane, scale)
		}

		matLinear(proj, attn, ly.wo.W, ly.bo.W, d, d, rows)
		for i := range x {
			x[i] += proj[i]
		}

		for r := 0; r < rows; r++ {
			tensor.LayerNormRow(ln[r*d:(r+1)*d], x[r*d:(r+1)*d], ly.ln2g.W, ly.ln2b.W)
		}
		matLinear(hbuf, ln, ly.w1.W, ly.b1.W, d, f, rows)
		tensor.GELU(hg, hbuf)
		matLinear(mlp, hg, ly.w2.W, ly.b2.W, f, d, rows)
		for i := range x {
			x[i] += mlp[i]
		}
	}

	for r := 0; r < rows; r++ {
		tensor.LayerNormRow(ln[r*d:(r+1)*d], x[r*d:(r+1)*d], m.lnfg.W, m.lnfb.W)
	}
	// Tied head as a GEMM: vocab-outer so each embedding row is streamed once
	// for all lanes; per lane this is the same ⟨ln, tok_v⟩ as Session.
	m.headLogits(bs.logits, ln, lanes, rows)
	for _, lane := range lanes {
		bs.pos[lane]++
	}
	return nil
}

// attendLane runs one lane's causal attention over its cache block into the
// compacted attn row r, using bs.p as the score row.
func (bs *BatchSession) attendLane(kcl, vcl, q, attn []float32, r, lane int, scale float32) {
	m := bs.m
	d := m.Cfg.Dim
	h := m.Cfg.Heads
	dh := d / h
	ctx := m.Cfg.Ctx
	t := bs.pos[lane]
	base := lane * ctx * d
	ar := attn[r*d : (r+1)*d]
	for i := range ar {
		ar[i] = 0
	}
	for hd := 0; hd < h; hd++ {
		off := hd * dh
		qh := q[r*d+off : r*d+off+dh]
		kh := kcl[base+hd*ctx*dh:]
		vh := vcl[base+hd*ctx*dh:]
		p := bs.p[:t+1]
		for j := 0; j <= t; j++ {
			p[j] = tensor.Dot(qh, kh[j*dh:j*dh+dh]) * scale
		}
		tensor.SoftmaxRow(p)
		out := ar[off : off+dh]
		for j := 0; j <= t; j++ {
			tensor.Axpy(out, p[j], vh[j*dh:j*dh+dh])
		}
	}
}

// Logits returns lane's next-token logits after its last step. The slice is
// owned by the session and overwritten the next time the lane is advanced.
func (bs *BatchSession) Logits(lane int) []float32 {
	if bs.pos[lane] == 0 {
		panic("nn: Logits before any Append on this lane")
	}
	v := bs.m.Cfg.Vocab
	return bs.logits[lane*v : (lane+1)*v]
}

// RewindLane truncates one lane back to pos consumed tokens and restores its
// pending logits row from the caller-supplied snapshot. The lane's KV cache
// block needs no clearing: attention reads only positions ≤ the lane's
// current length, and re-decoding overwrites the stale tail in place. The
// logits are copied into the lane's fixed row, so a caller holding the
// Logits(lane) slice sees the restored values. Other lanes are untouched —
// this is how a speculating lock-step lane rolls back without desyncing the
// batch (DESIGN.md §13).
func (bs *BatchSession) RewindLane(lane, pos int, logits []float32) error {
	v := bs.m.Cfg.Vocab
	switch {
	case lane < 0 || lane >= bs.n:
		return fmt.Errorf("nn: RewindLane lane %d outside batch of %d", lane, bs.n)
	case pos < 0 || pos > bs.pos[lane]:
		return fmt.Errorf("nn: RewindLane(%d) outside [0,%d]", pos, bs.pos[lane])
	case len(logits) != v:
		return fmt.Errorf("nn: RewindLane logits length %d, want %d", len(logits), v)
	}
	bs.pos[lane] = pos
	copy(bs.logits[lane*v:(lane+1)*v], logits)
	return nil
}

// CloneLane extracts lane as an independent single-row Session — same
// consumed prefix, same pending logits, its own KV cache — so a lane can
// leave the lock-step batch as a frozen single-row session (a prefix-cache
// snapshot) without re-decoding its prefix. The lane's contiguous cache block is re-sliced into private pages;
// only the filled positions are copied.
func (bs *BatchSession) CloneLane(lane int) *Session {
	m := bs.m
	v := m.Cfg.Vocab
	c := &Session{m: m, pos: bs.pos[lane],
		logits: append([]float32(nil), bs.logits[lane*v:(lane+1)*v]...)}
	d := m.Cfg.Dim
	dh := d / m.Cfg.Heads
	ctx := m.Cfg.Ctx
	base := lane * ctx * d
	t := bs.pos[lane]
	c.pages = make([]*kvPage, (t+PageTokens-1)/PageTokens)
	for pi := range c.pages {
		pg := newKVPage(m)
		n := t - pi*PageTokens
		if n > PageTokens {
			n = PageTokens
		}
		for l := range bs.kc {
			for hd := 0; hd < m.Cfg.Heads; hd++ {
				src := base + hd*ctx*dh + pi*PageTokens*dh
				dst := hd * PageTokens * dh
				copy(pg.k[l][dst:dst+n*dh], bs.kc[l][src:src+n*dh])
				copy(pg.v[l][dst:dst+n*dh], bs.vc[l][src:src+n*dh])
			}
		}
		c.pages[pi] = pg
	}
	c.initScratch()
	return c
}

// SeedLane initializes an empty lane from a single-row Session: the lane's
// KV block, position, and pending logits become copies of src's, so the
// lock-step batch resumes exactly where src left off. src is only read —
// it may be a shared prefix-cache snapshot, and many lanes may be seeded
// from the same source (each lane gets its own copy of the floats; the
// batch's contiguous cache layout cannot alias pages). Fails if the lane
// has already consumed tokens or src belongs to a different model.
func (bs *BatchSession) SeedLane(lane int, src *Session) error {
	m := bs.m
	switch {
	case lane < 0 || lane >= bs.n:
		return fmt.Errorf("nn: SeedLane lane %d outside batch of %d", lane, bs.n)
	case bs.pos[lane] != 0:
		return fmt.Errorf("nn: SeedLane on a lane with %d tokens consumed", bs.pos[lane])
	case src.m != m:
		return fmt.Errorf("nn: SeedLane from a session of a different model")
	}
	t := src.pos
	if t == 0 {
		return nil
	}
	d := m.Cfg.Dim
	dh := d / m.Cfg.Heads
	ctx := m.Cfg.Ctx
	base := lane * ctx * d
	for l := range bs.kc {
		for hd := 0; hd < m.Cfg.Heads; hd++ {
			dst := base + hd*ctx*dh
			hoff := hd * PageTokens * dh
			j := 0
			for pi := 0; j < t; pi++ {
				n := t - pi*PageTokens
				if n > PageTokens {
					n = PageTokens
				}
				kp := src.pages[pi].k[l][hoff:]
				vp := src.pages[pi].v[l][hoff:]
				copy(bs.kc[l][dst+j*dh:dst+(j+n)*dh], kp[:n*dh])
				copy(bs.vc[l][dst+j*dh:dst+(j+n)*dh], vp[:n*dh])
				j += n
			}
		}
	}
	v := m.Cfg.Vocab
	copy(bs.logits[lane*v:(lane+1)*v], src.logits)
	bs.pos[lane] = t
	return nil
}

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
// the model in lock-step. AppendBatch is the model's one decode forward: it
// runs the active lanes through one GEMM (matLinear) per projection, so the
// kernel's register tiles reuse each weight load across two lanes — and,
// since the per-lane arithmetic does not depend on the row count, each
// lane's float32 result is bit-identical to a one-lane call. A Session is
// the one-lane case.
//
// Lanes are ragged: each has its own position, and any subset may be
// advanced per call (records finish at different steps). All buffers — the
// batch-major KV caches and the per-step activation scratch — are carved
// from one tensor.Arena at construction, so a session costs O(1)
// allocations regardless of lane count, AppendBatch allocates nothing, and a
// caller that keeps sessions across batches (Reset) allocates none at all.
//
// A BatchSession is not safe for concurrent use.
type BatchSession struct {
	m   *Model
	n   int
	cap int   // positions per lane block: Ctx, or a frozen snapshot's length
	pos []int // per-lane tokens consumed
	// Per-layer KV caches, batch-major: lane b's block is
	// kc[l][b*cap*Dim : (b+1)*cap*Dim] — keys transposed (element e = hd*dh+i
	// of position t at e*cap+t), values head-major ((hd*cap+t)*dh+i) — so one
	// head's attention is two MatAccum calls (DESIGN.md §7) and copyLane moves
	// a lane between caches of different capacities as straight runs.
	kc, vc [][]float32
	logits []float32 // [n*Vocab], row lane*Vocab.. persists until the lane's next step
	// Compacted per-step activations: row r of each buffer belongs to the
	// r-th lane passed to the current AppendBatch call. All nil in a frozen
	// snapshot, which AppendBatch refuses before touching any of them.
	x, ln, q, k, v, attn, proj, mlp []float32 // [n*Dim]
	hbuf, hg                        []float32 // [n*F]
	p                               []float32 // [cap] attention score row, reused lane by lane
	inStep                          []bool    // [n] duplicate-lane check scratch

	// Row sharing. cls[lane] is the lane's history class: lanes of one class
	// hold the same tokens at the same positions, so bit-identical KV blocks
	// and logits (DESIGN.md §7), and AppendBatch computes a (class, token)
	// row once for all of them. Class 0 is every empty lane's; any other is
	// drawn from classes, which only grows, so no two histories share one.
	cls     []uint64 // [n]
	classes uint64
	// closed marks a lane whose last token was consumed without its forward
	// (Consume): its KV row there and its logits were never written, so it
	// may not be stepped again until it is emptied.
	closed []bool // [n]
	// AppendBatch scratch: the lanes and tokens of the step's distinct rows,
	// and each row's index among them.
	uLanes, uToks, rep []int // [n]
}

// NewBatchSession creates a lock-step session with n lanes, all empty.
func (m *Model) NewBatchSession(n int) *BatchSession {
	if n < 1 {
		panic(fmt.Sprintf("nn: NewBatchSession(%d)", n))
	}
	bs := &BatchSession{}
	bs.init(m, n, m.Cfg.Ctx, true)
	return bs
}

// init carves an n-lane session whose lane blocks hold positions tokens from
// one arena. Without scratch the session is a frozen snapshot: KV blocks and
// logits only, never stepped again.
func (bs *BatchSession) init(m *Model, n, positions int, scratch bool) {
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	cache := positions * d
	size := 2*m.Cfg.Layers*n*cache + n*m.Cfg.Vocab
	if scratch {
		size += 8*n*d + 2*n*f + positions
	}
	a := tensor.NewArena(size)
	*bs = BatchSession{
		m:      m,
		n:      n,
		cap:    positions,
		pos:    make([]int, n),
		kc:     make([][]float32, m.Cfg.Layers),
		vc:     make([][]float32, m.Cfg.Layers),
		inStep: make([]bool, n),
		cls:    make([]uint64, n),
		closed: make([]bool, n),
	}
	for l := range bs.kc {
		bs.kc[l] = a.Alloc(n * cache)
		bs.vc[l] = a.Alloc(n * cache)
	}
	bs.logits = a.Alloc(n * m.Cfg.Vocab)
	if !scratch {
		return
	}
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
	bs.p = a.Alloc(positions)
	rows := make([]int, 3*n)
	bs.uLanes, bs.uToks, bs.rep = rows[:0:n], rows[n:n:2*n], rows[2*n:]
}

// Lanes returns the lane count the session was created with.
func (bs *BatchSession) Lanes() int { return bs.n }

// Reset empties every lane, making the session as good as a new one of the
// same size. Only the positions, classes and closed marks are cleared: a
// lane never reads KV rows at or past its length, nor logits before its
// first step, and every row it does read it has written since — so the
// stale floats of a previous batch are never seen and need no zeroing.
func (bs *BatchSession) Reset() {
	clear(bs.pos)
	clear(bs.cls)
	clear(bs.closed)
}

// ResetLane empties one lane, as Reset empties all of them, leaving the
// others as they are: the lane's next AppendBatch starts it again at
// position 0.
func (bs *BatchSession) ResetLane(lane int) {
	bs.pos[lane], bs.cls[lane], bs.closed[lane] = 0, 0, false
}

// Len reports the number of tokens lane has consumed.
func (bs *BatchSession) Len(lane int) int { return bs.pos[lane] }

// AppendBatch feeds toks[i] to lanes[i] for every i and computes each
// advanced lane's next-position logits. Every lane is validated before any
// state is mutated; an invalid lane aborts the whole call with a *LaneError
// and no side effects, so the caller can retire that lane and retry.
//
// Rows whose lanes share a history class and receive the same token are
// computed once: the forward runs over the first of them, and each twin
// then copies its new K and V rows and its logits (copyStep). Since a row's
// floats do not depend on the rows beside it, the twin's are the bits it
// would have computed itself.
func (bs *BatchSession) AppendBatch(lanes, toks []int) error {
	if err := bs.validate(lanes, toks); err != nil {
		return err
	}
	if len(lanes) == 0 {
		return nil
	}
	ul, ut := bs.uLanes[:0], bs.uToks[:0]
	for i, lane := range lanes {
		j := 0
		for j < len(ul) && (bs.cls[ul[j]] != bs.cls[lane] || ut[j] != toks[i]) {
			j++
		}
		if j == len(ul) {
			ul, ut = append(ul, lane), append(ut, toks[i])
		}
		bs.rep[i] = j
	}
	bs.forward(ul, ut)
	// Each distinct row opens one new class, which its twins join.
	base := bs.classes
	bs.classes += uint64(len(ul))
	for i, lane := range lanes {
		j := bs.rep[i]
		if ul[j] != lane {
			bs.copyStep(lane, ul[j])
		}
		bs.cls[lane] = base + 1 + uint64(j)
		bs.pos[lane]++
	}
	return nil
}

// Consume feeds toks[i] to lanes[i] for every i without computing anything:
// it validates exactly as AppendBatch does, then only advances the
// positions. It is for a token whose forward nobody reads — the one that
// closes a record. The lane's KV row at that position and its logits are
// left unwritten, so the lane is closed: AppendBatch and Consume refuse it
// until ResetLane or Reset empties it.
func (bs *BatchSession) Consume(lanes, toks []int) error {
	if err := bs.validate(lanes, toks); err != nil {
		return err
	}
	for _, lane := range lanes {
		bs.classes++
		bs.cls[lane] = bs.classes
		bs.closed[lane] = true
		bs.pos[lane]++
	}
	return nil
}

// validate checks every lane of a step before either step method mutates
// anything, returning the first invalid lane's *LaneError.
func (bs *BatchSession) validate(lanes, toks []int) error {
	if len(lanes) != len(toks) {
		return fmt.Errorf("nn: step with %d lanes, %d tokens", len(lanes), len(toks))
	}
	for i, lane := range lanes {
		var err error
		switch {
		case lane < 0 || lane >= bs.n:
			err = fmt.Errorf("nn: lane outside batch of %d", bs.n)
		case bs.x == nil:
			// Checked before inStep is written: a frozen snapshot is shared
			// read-only, so even a refused Append must not store into it.
			err = fmt.Errorf("nn: frozen %d-token snapshot; Clone it to append", bs.cap)
		case bs.inStep[lane]:
			err = fmt.Errorf("nn: lane appears twice in one step")
		case toks[i] < 0 || toks[i] >= bs.m.Cfg.Vocab:
			err = fmt.Errorf("nn: token %d outside vocab %d", toks[i], bs.m.Cfg.Vocab)
		case bs.pos[lane] >= bs.cap:
			err = fmt.Errorf("nn: context length %d exceeded", bs.cap)
		case bs.closed[lane]:
			err = fmt.Errorf("nn: lane closed by Consume; reset it to append")
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
	return nil
}

// forward runs the decode forward for toks[r] at lanes[r]'s position, every
// row distinct: it writes each lane's K and V rows at that position and its
// logits row, and leaves positions and classes to the caller.
func (bs *BatchSession) forward(lanes, toks []int) {
	m := bs.m
	rows := len(lanes)
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	h := m.Cfg.Heads
	dh := d / h
	stride := bs.cap
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

		matLinear(q, ln, ly.wq.W, ly.bq.W, d, d, rows)
		matLinear(k, ln, ly.wk.W, ly.bk.W, d, d, rows)
		matLinear(v, ln, ly.wv.W, ly.bv.W, d, d, rows)

		// Scatter k (transposed) and v (head-major) into each lane's block.
		kcl, vcl := bs.kc[l], bs.vc[l]
		for r, lane := range lanes {
			t := bs.pos[lane]
			base := lane * stride * d
			for e, kv := range k[r*d : (r+1)*d] {
				kcl[base+e*stride+t] = kv
			}
			for hd := 0; hd < h; hd++ {
				dst := base + (hd*stride+t)*dh
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
	m.headLogits(bs.logits, ln, lanes)
}

// copyStep gives lane dst the step its twin src just computed: src's K and
// V rows at dst's position, in every layer, and src's logits. The two lanes
// shared a class, so their blocks agree at every earlier position.
func (bs *BatchSession) copyStep(dst, src int) {
	d, h := bs.m.Cfg.Dim, bs.m.Cfg.Heads
	dh := d / h
	stride, t := bs.cap, bs.pos[dst]
	db, sb := dst*stride*d, src*stride*d
	for l := range bs.kc {
		kcl, vcl := bs.kc[l], bs.vc[l]
		for e := 0; e < d; e++ {
			kcl[db+e*stride+t] = kcl[sb+e*stride+t]
		}
		for hd := 0; hd < h; hd++ {
			off := (hd*stride + t) * dh
			copy(vcl[db+off:db+off+dh], vcl[sb+off:sb+off+dh])
		}
	}
	v := bs.m.Cfg.Vocab
	copy(bs.logits[dst*v:(dst+1)*v], bs.logits[src*v:(src+1)*v])
}

// attendLane runs one lane's causal attention over its cache block into the
// compacted attn row r, using bs.p as the score row. Per head both products
// are one MatAccum: the scores ⟨q, k_j⟩ for j ≤ t start at +0 and add q_i·k_ji
// in ascending i, as Dot does, and the value sum adds p_j·v_j in ascending j.
func (bs *BatchSession) attendLane(kcl, vcl, q, attn []float32, r, lane int, scale float32) {
	m := bs.m
	d := m.Cfg.Dim
	dh := d / m.Cfg.Heads
	stride := bs.cap
	t := bs.pos[lane]
	base := lane * stride * d
	ar := attn[r*d : (r+1)*d]
	clear(ar)
	p := bs.p[:t+1]
	for off := 0; off < d; off += dh {
		clear(p)
		tensor.MatAccum(p, q[r*d+off:], kcl[base+off*stride:], 1, dh, t+1, stride)
		tensor.Scale(p, scale)
		tensor.SoftmaxRow(p)
		tensor.MatAccum(ar[off:off+dh], p, vcl[base+off*stride:], 1, t+1, dh, dh)
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

// CloneLane freezes lane into a snapshot Session: same consumed prefix, same
// pending logits, its own KV block sized to exactly that prefix — how a lane
// leaves the lock-step batch as a prefix-cache entry without re-decoding.
// The snapshot is read-only: Append on it fails, and Clone or SeedLane copy
// it out to continue.
func (bs *BatchSession) CloneLane(lane int) *Session {
	s := &Session{}
	s.bs.init(bs.m, 1, bs.pos[lane], false)
	copyLane(&s.bs, 0, bs, lane)
	return s
}

// SeedLane initializes an empty lane from a single-row Session: the lane's
// KV block, position, and pending logits become copies of src's, so the
// lock-step batch resumes exactly where src left off. src is only read —
// it may be a shared prefix-cache snapshot, and many lanes may be seeded
// from the same source. Fails if the lane has already consumed tokens or
// src belongs to a different model.
func (bs *BatchSession) SeedLane(lane int, src *Session) error {
	switch {
	case lane < 0 || lane >= bs.n:
		return fmt.Errorf("nn: SeedLane lane %d outside batch of %d", lane, bs.n)
	case bs.pos[lane] != 0:
		return fmt.Errorf("nn: SeedLane on a lane with %d tokens consumed", bs.pos[lane])
	case src.bs.m != bs.m:
		return fmt.Errorf("nn: SeedLane from a session of a different model")
	}
	copyLane(bs, lane, &src.bs, 0)
	return nil
}

// copyLane copies lane sl of src — its filled KV positions, pending logits
// and position — into lane dl of dst, whose capacity must hold them. Only
// src is read.
func copyLane(dst *BatchSession, dl int, src *BatchSession, sl int) {
	m := src.m
	d, h := m.Cfg.Dim, m.Cfg.Heads
	dh := d / h
	t := src.pos[sl]
	db, sb := dl*dst.cap*d, sl*src.cap*d
	for l := range src.kc {
		copyRuns(dst.kc[l][db:], src.kc[l][sb:], d, dst.cap, src.cap, t)
		copyRuns(dst.vc[l][db:], src.vc[l][sb:], h, dst.cap*dh, src.cap*dh, t*dh)
	}
	v := m.Cfg.Vocab
	copy(dst.logits[dl*v:(dl+1)*v], src.logits[sl*v:(sl+1)*v])
	dst.pos[dl] = t
	dst.classes++
	dst.cls[dl] = dst.classes
}

// copyRuns copies runs blocks of n floats from src to dst, block b starting
// at b·ss in src and at b·ds in dst: the first n positions of every key row
// or head's value block, between two caches whose position strides differ.
func copyRuns(dst, src []float32, runs, ds, ss, n int) {
	for b := 0; b < runs; b++ {
		copy(dst[b*ds:b*ds+n], src[b*ss:b*ss+n])
	}
}

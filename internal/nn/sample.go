package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Session is an incremental decoding session with a per-layer KV cache.
// Feed tokens with Append; after each Append, Logits returns the next-token
// distribution's logits. Sessions are cheap to create (one per generated
// record) and not safe for concurrent use.
type Session struct {
	m   *Model
	pos int
	// KV cache as a sequence of refcounted pages, PageTokens positions each
	// (keys transposed, values head-major; see kvPage). Pages are allocated
	// on demand, so a short record touches ceil(pos/PageTokens) pages, not
	// Ctx rows.
	// Clone shares pages instead of copying them; Append copies a shared
	// partial page before writing into it (copy-on-write). A frozen session
	// (e.g. a prefix-cache snapshot) may be Cloned concurrently — the page
	// refcounts are atomic — but Append/Clone on the *same* session still
	// must not race, per the no-concurrent-use contract above.
	pages  []*kvPage
	logits []float32
	// Append scratch, allocated once per session. The decode hot path calls
	// Append once per emitted character, so per-call make() churn dominated
	// the allocation profile before these were hoisted.
	x, ln, q, k, v, attn, proj, mlp []float32 // [Dim]
	hbuf, hg                        []float32 // [ff*Dim]
	p                               []float32 // [Ctx] attention row, used up to pos+1
}

// NewSession starts an empty decoding session. KV pages are allocated as
// tokens arrive.
func (m *Model) NewSession() *Session {
	s := &Session{m: m, logits: make([]float32, m.Cfg.Vocab)}
	s.initScratch()
	return s
}

// initScratch allocates the per-Append work buffers.
func (s *Session) initScratch() {
	d := s.m.Cfg.Dim
	f := s.m.Cfg.ff() * d
	s.x = make([]float32, d)
	s.ln = make([]float32, d)
	s.q = make([]float32, d)
	s.k = make([]float32, d)
	s.v = make([]float32, d)
	s.attn = make([]float32, d)
	s.proj = make([]float32, d)
	s.mlp = make([]float32, d)
	s.hbuf = make([]float32, f)
	s.hg = make([]float32, f)
	s.p = make([]float32, s.m.Cfg.Ctx)
}

// Len reports the number of tokens consumed.
func (s *Session) Len() int { return s.pos }

// Append feeds one token and computes the logits for the following position.
func (s *Session) Append(tok int) error {
	m := s.m
	if tok < 0 || tok >= m.Cfg.Vocab {
		return fmt.Errorf("nn: token %d outside vocab %d", tok, m.Cfg.Vocab)
	}
	if s.pos >= m.Cfg.Ctx {
		return fmt.Errorf("nn: context length %d exceeded", m.Cfg.Ctx)
	}
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	h := m.Cfg.Heads
	dh := d / h
	scale := float32(1 / math.Sqrt(float64(dh)))
	t := s.pos

	// Land position t on its page, allocating or copy-on-writing as needed.
	// A shared page (refs > 1) is immutable: copy the filled prefix into a
	// private page before scattering this position's k/v into it.
	pg, u := t/PageTokens, t%PageTokens
	if pg == len(s.pages) {
		s.pages = append(s.pages, newKVPage(m))
	} else if s.pages[pg].refs.Load() > 1 {
		fresh := s.pages[pg].copyPrefix(m, u)
		s.pages[pg].release()
		s.pages[pg] = fresh
	}
	page := s.pages[pg]

	x := s.x
	copy(x, m.tok.W[tok*d:(tok+1)*d])
	pos := m.pos.W[t*d : (t+1)*d]
	for j := range x {
		x[j] += pos[j]
	}

	ln, q, k, v, attn := s.ln, s.q, s.k, s.v, s.attn
	hbuf, hg := s.hbuf, s.hg
	for l := range m.layers {
		ly := &m.layers[l]
		tensor.LayerNormRow(ln, x, ly.ln1g.W, ly.ln1b.W)

		matLinear(q, ln, ly.wq.W, ly.bq.W, d, d, 1)
		matLinear(k, ln, ly.wk.W, ly.bk.W, d, d, 1)
		matLinear(v, ln, ly.wv.W, ly.bv.W, d, d, 1)

		// Scatter this position's k (transposed) and v (head-major) into
		// its page.
		kp, vp := page.k[l], page.v[l]
		for e, kv := range k {
			kp[e*PageTokens+u] = kv
		}
		for hd := 0; hd < h; hd++ {
			dst := (hd*PageTokens + u) * dh
			copy(vp[dst:dst+dh], v[hd*dh:(hd+1)*dh])
		}

		// Attend over the cache (positions 0..t) page by page, as
		// BatchSession.attendLane does over its contiguous block: each score
		// is computed whole within its page, and the value sums continue the
		// same accumulators page after page in position order.
		clear(attn)
		p := s.p[:t+1]
		for off := 0; off < d; off += dh {
			clear(p)
			for pi, j := 0, 0; j <= t; pi, j = pi+1, j+PageTokens {
				n := min(t+1-j, PageTokens)
				tensor.MatAccum(p[j:j+n], q[off:], s.pages[pi].k[l][off*PageTokens:], 1, dh, n, PageTokens)
			}
			tensor.Scale(p, scale)
			tensor.SoftmaxRow(p)
			for pi, j := 0, 0; j <= t; pi, j = pi+1, j+PageTokens {
				n := min(t+1-j, PageTokens)
				tensor.MatAccum(attn[off:off+dh], p[j:j+n], s.pages[pi].v[l][off*PageTokens:], 1, n, dh, dh)
			}
		}

		proj := s.proj
		matLinear(proj, attn, ly.wo.W, ly.bo.W, d, d, 1)
		for j := range x {
			x[j] += proj[j]
		}

		tensor.LayerNormRow(ln, x, ly.ln2g.W, ly.ln2b.W)
		matLinear(hbuf, ln, ly.w1.W, ly.b1.W, d, f, 1)
		tensor.GELU(hg, hbuf)
		mlp := s.mlp
		matLinear(mlp, hg, ly.w2.W, ly.b2.W, f, d, 1)
		for j := range x {
			x[j] += mlp[j]
		}
	}

	tensor.LayerNormRow(ln, x, m.lnfg.W, m.lnfb.W)
	// Tied head: logits[v] = ⟨ln, tok_v⟩.
	m.headLogits(s.logits, ln, nil, 1)
	s.pos++
	return nil
}

// Logits returns the next-token logits after the last Append. The returned
// slice is owned by the session and overwritten by the next Append; callers
// that mask it in place (LeJIT does) should copy first if they need the raw
// values later.
func (s *Session) Logits() []float32 {
	if s.pos == 0 {
		panic("nn: Logits before any Append")
	}
	return s.logits
}

// Clone returns an independent copy of the session: same consumed prefix,
// same pending logits, its own view of the KV cache. Used by beam-search
// decoding (beams share a prefix and then diverge) and by the prefix cache
// to hand a frozen snapshot to a new request. No KV floats are copied here —
// the clone shares the pages by reference and Append copy-on-writes the
// shared partial page when either side next advances, so a clone costs
// O(pages) pointer work plus one logits row.
func (s *Session) Clone() *Session {
	c := &Session{m: s.m, pos: s.pos, logits: append([]float32(nil), s.logits...)}
	c.pages = append([]*kvPage(nil), s.pages...)
	for _, p := range c.pages {
		p.retain()
	}
	// Fresh scratch: the buffers hold no state between Appends, but sharing
	// them would race when clones decode concurrently.
	c.initScratch()
	return c
}

// Release drops the session's references to its KV pages so pages it shared
// (with clones or the prefix cache) stop counting it toward copy-on-write.
// The session must not be used afterwards. Release is optional: a session
// collected without it merely leaves its refs behind, which can only cause
// a spurious page copy elsewhere, never corruption.
func (s *Session) Release() {
	for _, p := range s.pages {
		p.release()
	}
	s.pages = nil
}

// KVBytes reports the heap bytes of KV cache reachable from this session
// (pages × page size), counting shared pages in full. The prefix cache uses
// this for its resident-bytes accounting.
func (s *Session) KVBytes() int64 {
	return int64(len(s.pages)) * pageBytes(s.m)
}

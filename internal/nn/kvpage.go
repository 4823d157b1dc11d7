package nn

import "sync/atomic"

// PageTokens is the number of token positions held by one KV page. Records
// in the telemetry grammar run a few dozen tokens (Ctx is 48 at the default
// scale), so 16 keeps a session at 1–3 pages while still letting a shared
// prompt prefix be reused at page granularity.
const PageTokens = 16

// kvPage is one refcounted block of KV cache: PageTokens positions for every
// layer. Keys are transposed — element i of head hd at local position u is
// k[l][(hd*dh+i)*PageTokens+u], so one head's scores are a MatAccum over dh
// rows of stride PageTokens — and values are head-major, v[l][(hd*PageTokens+
// u)*dh : +dh]; BatchSession's lane blocks use the same layouts with stride
// Ctx (DESIGN.md §7). Pages are shared between sessions by
// Clone and by the cross-request prefix cache; a page with refs > 1 is
// immutable — a session that needs to write into a shared partial page first
// replaces it with a private copy (copy-on-write in Session.Append).
//
// The refcount only drives the COW decision and the cache's byte accounting;
// memory itself is garbage-collected. A session dropped without Release
// therefore leaks a reference, which can only cause a spurious copy later,
// never corruption.
type kvPage struct {
	refs atomic.Int32
	k, v [][]float32 // per-layer slabs, [Layers][PageTokens*Dim]
}

// newKVPage allocates an empty page for m's geometry with refs = 1. All
// per-layer slabs are carved from one backing slice.
func newKVPage(m *Model) *kvPage {
	layers := m.Cfg.Layers
	slab := PageTokens * m.Cfg.Dim
	p := &kvPage{k: make([][]float32, layers), v: make([][]float32, layers)}
	backing := make([]float32, 2*layers*slab)
	for l := 0; l < layers; l++ {
		p.k[l] = backing[(2*l)*slab : (2*l+1)*slab]
		p.v[l] = backing[(2*l+1)*slab : (2*l+2)*slab]
	}
	p.refs.Store(1)
	return p
}

// copyPrefix returns a private copy of the page's first `used` positions
// (per layer). The remainder of the fresh page is zero and never read before
// Append overwrites it.
func (p *kvPage) copyPrefix(m *Model, used int) *kvPage {
	c := newKVPage(m)
	d, h := m.Cfg.Dim, m.Cfg.Heads
	dh := d / h
	for l := range p.k {
		copyRuns(c.k[l], p.k[l], d, PageTokens, PageTokens, used)
		copyRuns(c.v[l], p.v[l], h, PageTokens*dh, PageTokens*dh, used*dh)
	}
	return c
}

// copyRuns copies runs blocks of n floats from src to dst, block b starting
// at b·ss in src and at b·ds in dst: the first n positions of every key row
// or head's value block, between two caches whose position strides differ.
func copyRuns(dst, src []float32, runs, ds, ss, n int) {
	for b := 0; b < runs; b++ {
		copy(dst[b*ds:b*ds+n], src[b*ss:b*ss+n])
	}
}

func (p *kvPage) retain()  { p.refs.Add(1) }
func (p *kvPage) release() { p.refs.Add(-1) }

// pageBytes is the heap footprint of one page's float data for m's geometry.
func pageBytes(m *Model) int64 {
	return int64(2*m.Cfg.Layers*PageTokens*m.Cfg.Dim) * 4
}

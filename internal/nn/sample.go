package nn

// Session is an incremental decoding session: a one-lane BatchSession, fed
// through the same AppendBatch forward as every lock-step lane. Feed tokens
// with Append; after each Append, Logits returns the next-token
// distribution's logits. Sessions are cheap to create (one per generated
// record) and not safe for concurrent use — except that a frozen snapshot
// (BatchSession.CloneLane) is only ever read, so any number of goroutines
// may Clone it or SeedLane from it at once.
type Session struct {
	bs BatchSession
	// lane is always {0}; tok carries Append's token. Fixed arrays, so
	// Append hands AppendBatch its slices without allocating.
	lane, tok [1]int
}

// NewSession starts an empty decoding session with room for Ctx tokens.
func (m *Model) NewSession() *Session {
	s := &Session{}
	s.bs.init(m, 1, m.Cfg.Ctx, true)
	return s
}

// Len reports the number of tokens consumed.
func (s *Session) Len() int { return s.bs.pos[0] }

// Append feeds one token and computes the logits for the following position.
// It fails on a frozen snapshot; Clone one to continue it.
func (s *Session) Append(tok int) error {
	s.tok[0] = tok
	err := s.bs.AppendBatch(s.lane[:], s.tok[:])
	if le, ok := err.(*LaneError); ok {
		return le.Err
	}
	return err
}

// Logits returns the next-token logits after the last Append. The returned
// slice is owned by the session and overwritten by the next Append; callers
// that mask it in place (LeJIT does) should copy first if they need the raw
// values later.
func (s *Session) Logits() []float32 { return s.bs.Logits(0) }

// Clone returns an independent full-context copy of the session: same
// consumed prefix, same pending logits, its own KV block with room up to Ctx.
// Only the filled positions are copied, and the source is only read, so a
// frozen snapshot can be cloned and continued. Used by beam-search decoding
// (beams share a prefix and then diverge).
func (s *Session) Clone() *Session {
	c := &Session{}
	c.bs.init(s.bs.m, 1, s.bs.m.Cfg.Ctx, true)
	copyLane(&c.bs, 0, &s.bs, 0)
	return c
}

// Release does nothing: a session's memory is garbage-collected and nothing
// is shared between sessions. It stays only because the benchmark harness
// calls it (the same seam as Model.KernelOps) and goes with that call in the
// next benchmark change.
func (s *Session) Release() {}

// KVBytes reports the bytes of KV cache the session holds: its position
// capacity × 2·Layers·Dim float32s. A frozen snapshot holds exactly its
// length, so for one the charge is exact. The prefix cache accounts its
// resident bytes with it.
func (s *Session) KVBytes() int64 {
	c := s.bs.m.Cfg
	return int64(s.bs.cap) * int64(2*c.Layers*c.Dim) * 4
}

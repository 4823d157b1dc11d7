package tensor

// matAccum is MatAccum's body in SSE2 — the amd64 baseline, so there is no
// feature to detect (matacc_amd64.s). MatAccum has checked every operand
// length and that rows, in and out are positive; the assembly reads through
// raw pointers.
//
//go:noescape
func matAccum(y, x, w []float32, rows, in, out, wstride int)

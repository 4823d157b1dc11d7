package tensor

// accum4 is Accum4's body in SSE2 — the amd64 baseline, so there is no
// feature to detect (accum4_amd64.s). Accum4 has checked that every row is
// in bounds; the assembly reads through raw pointers.
//
//go:noescape
func accum4(y, w []float32, stride int, x0, x1, x2, x3 float32)

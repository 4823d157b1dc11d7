package tensor

// geluPairs runs GELU's fast path on x two elements at a time in SSE2 — the
// amd64 baseline, so there is no feature to detect (gelu_amd64.s). It stops
// before the first pair the fast path does not take, or before a last odd
// element, and returns how many elements of out it wrote. len(out) must
// equal len(x).
//
//go:noescape
func geluPairs(out, x []float32) int

// gelu hands each input the kernel leaves to geluGeneric, one pair at a
// time, and resumes the kernel after it.
func gelu(out, x []float32) {
	for i := 0; i < len(x); {
		i += geluPairs(out[i:], x[i:])
		n := min(len(x)-i, 2)
		geluGeneric(out[i:i+n], x[i:i+n])
		i += n
	}
}

//go:build !amd64

package tensor

func matAccum(y, x, w []float32, rows, in, out, wstride int) {
	matAccumGeneric(y, x, w, rows, in, out, wstride)
}

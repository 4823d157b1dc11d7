//go:build !amd64

package tensor

func accum4(y, w []float32, stride int, x0, x1, x2, x3 float32) {
	accum4Generic(y, w, stride, x0, x1, x2, x3)
}

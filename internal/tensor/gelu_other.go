//go:build !amd64

package tensor

func gelu(out, x []float32) { geluGeneric(out, x) }

package nn

import "repro/internal/tensor"

// This file holds the decode GEMM. Every product of the decode forward but
// the tied head — the projections below, and attention's scores and value
// sums in batch.go — is one call of tensor.MatAccum, which keeps one
// accumulator per output element fed in ascending input order whatever the
// row count, so any batch size produces bit-identical float32 results; a
// Session is the rows=1 case.

// matLinear computes Y = X·W + b for X [rows, in], Y [rows, out], both
// compacted row-major. Per element the accumulation is the scalar loop's:
// bias, then input rows ascending.
func matLinear(y, x, w, b []float32, in, out, rows int) {
	for r := 0; r < rows; r++ {
		copy(y[r*out:(r+1)*out], b[:out])
	}
	tensor.MatAccum(y, x, w, rows, in, out, out)
}

// headLogits computes the tied-head logits of the final layer-norm rows, one
// per lane: compacted row r goes to logits row lanes[r]. Vocab-outer, so
// each embedding row is streamed once for all lanes; per (lane, v) the value
// is the ⟨ln_r, tok_v⟩ Dot.
func (m *Model) headLogits(logits, ln []float32, lanes []int) {
	d := m.Cfg.Dim
	vocab := m.Cfg.Vocab
	for vv := 0; vv < vocab; vv++ {
		wv := m.tok.W[vv*d : (vv+1)*d]
		for r, lane := range lanes {
			logits[lane*vocab+vv] = tensor.Dot(ln[r*d:(r+1)*d], wv)
		}
	}
}

package nn

import "repro/internal/tensor"

// This file holds the decode GEMM. Every product of the decode forward — the
// projections below, attention's scores and value sums in batch.go, and the
// tied head — is one call of tensor.MatAccum, which keeps one accumulator
// per output element fed in ascending input order whatever the row count,
// so any batch size produces bit-identical float32 results; a Session is the
// rows=1 case.

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
// per lane: compacted row r goes to logits row lanes[r], as one MatAccum
// over the [Dim, Vocab] transpose of the embedding. Each logit starts at +0
// and adds ln_r[i]·tok_v[i] in ascending i — the float32 sequence of the
// scalar dot product ⟨ln_r, tok_v⟩.
func (m *Model) headLogits(logits, ln []float32, lanes []int) {
	d := m.Cfg.Dim
	vocab := m.Cfg.Vocab
	for r, lane := range lanes {
		row := logits[lane*vocab : (lane+1)*vocab]
		clear(row)
		tensor.MatAccum(row, ln[r*d:(r+1)*d], m.tokT, 1, d, vocab, vocab)
	}
}

// transposeHead rewrites m.tokT from the embedding. Every place that sets
// weights calls it — New, Load and each Adam step — so the head never reads
// a stale copy.
func (m *Model) transposeHead() {
	d := m.Cfg.Dim
	if m.tokT == nil {
		m.tokT = make([]float32, d*m.Cfg.Vocab)
	}
	tensor.Transpose(tensor.FromSlice(d, m.Cfg.Vocab, m.tokT), tensor.FromSlice(m.Cfg.Vocab, d, m.tok.W))
}

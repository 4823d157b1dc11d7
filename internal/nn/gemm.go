package nn

import "repro/internal/tensor"

// This file holds the decode GEMM kernels. matLinear computes every lane's
// output row around the one inner kernel, tensor.Accum4; Session.Append is the
// rows=1 case. Each output element has one accumulator fed in ascending
// input-row order regardless of rows, so any batch size produces
// bit-identical float32 results.

// matLinear computes Y = X·W + b for X [rows, in], Y [rows, out], both
// compacted row-major. The loop order is weight block outer, lane inner: each
// 4-row block of W is loaded once and folded into every lane before moving
// on, so W streams from memory once per call instead of once per lane. Per
// element the accumulation is the scalar loop's: bias, then input rows
// ascending.
func matLinear(y, x, w, b []float32, in, out, rows int) {
	for r := 0; r < rows; r++ {
		copy(y[r*out:(r+1)*out], b[:out])
	}
	p := 0
	for ; p+4 <= in; p += 4 {
		blk := w[p*out:]
		for r := 0; r < rows; r++ {
			xr := x[r*in:]
			tensor.Accum4(y[r*out:(r+1)*out], blk, out, xr[p], xr[p+1], xr[p+2], xr[p+3])
		}
	}
	for ; p < in; p++ {
		row := w[p*out : (p+1)*out]
		for r := 0; r < rows; r++ {
			xv := x[r*in+p]
			yr := y[r*out : (r+1)*out]
			for j := range yr {
				yr[j] += xv * row[j]
			}
		}
	}
}

// matLinear3 computes the three attention projections for all lanes in one
// pass over the shared input rows, each projection accumulating exactly as
// matLinear would alone.
func matLinear3(q, k, v, x, wq, wk, wv, bq, bk, bv []float32, in, out, rows int) {
	for r := 0; r < rows; r++ {
		copy(q[r*out:(r+1)*out], bq[:out])
		copy(k[r*out:(r+1)*out], bk[:out])
		copy(v[r*out:(r+1)*out], bv[:out])
	}
	p := 0
	for ; p+4 <= in; p += 4 {
		bq4, bk4, bv4 := wq[p*out:], wk[p*out:], wv[p*out:]
		for r := 0; r < rows; r++ {
			xr := x[r*in:]
			x0, x1, x2, x3 := xr[p], xr[p+1], xr[p+2], xr[p+3]
			tensor.Accum4(q[r*out:(r+1)*out], bq4, out, x0, x1, x2, x3)
			tensor.Accum4(k[r*out:(r+1)*out], bk4, out, x0, x1, x2, x3)
			tensor.Accum4(v[r*out:(r+1)*out], bv4, out, x0, x1, x2, x3)
		}
	}
	for ; p < in; p++ {
		rq, rk, rv := wq[p*out:(p+1)*out], wk[p*out:(p+1)*out], wv[p*out:(p+1)*out]
		for r := 0; r < rows; r++ {
			xv := x[r*in+p]
			qr := q[r*out : (r+1)*out]
			kr := k[r*out : (r+1)*out]
			vr := v[r*out : (r+1)*out]
			for j := range qr {
				qr[j] += xv * rq[j]
				kr[j] += xv * rk[j]
				vr[j] += xv * rv[j]
			}
		}
	}
}

// headLogits computes the tied-head logits for rows final layer-norm rows.
// lanes maps compacted row r to its logits row (nil = identity, the solo
// path). Vocab-outer, so each embedding row is streamed once for all lanes;
// per (lane, v) the value is the same ⟨ln_r, tok_v⟩ Dot as the solo head.
func (m *Model) headLogits(logits, ln []float32, lanes []int, rows int) {
	d := m.Cfg.Dim
	vocab := m.Cfg.Vocab
	for vv := 0; vv < vocab; vv++ {
		wv := m.tok.W[vv*d : (vv+1)*d]
		for r := 0; r < rows; r++ {
			dst := r
			if lanes != nil {
				dst = lanes[r]
			}
			logits[dst*vocab+vv] = tensor.Dot(ln[r*d:(r+1)*d], wv)
		}
	}
}

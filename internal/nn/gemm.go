package nn

import "repro/internal/tensor"

// This file holds the column-range GEMM kernels and the dispatchers that
// shard them across the kernel worker group (parallel.go). matLinearCols
// computes output columns [j0,j1) for every lane around the one inner kernel,
// tensor.Accum4; Session.Append is the rows=1 case. Each output element has
// one accumulator fed in ascending input-row order regardless of [j0,j1) and
// of rows, so any column partition — and therefore any worker count — and any
// batch size produce bit-identical float32 results.
//
// The kernels optionally read the int8 weight store (quant.go): weight rows
// with an exact dequant round-trip are staged through a per-block dq
// scratch (dequantized 1 byte/weight instead of streaming 4), fallback rows
// come straight from W. Staged or not, the floats entering the multiply are
// bit-identical, so the quant path is exact by construction.

// weightBlock4 returns the 4-row weight block starting at input row p,
// restricted to columns [j0,j1), plus its row stride. Float path: a direct
// view into w (stride out). Quant path: the rows are staged packed into dq
// (stride j1-j0), dequantizing servable rows and copying fallback rows.
func weightBlock4(w []float32, qt *quantTensor, p, out, j0, j1 int, dq []float32) ([]float32, int) {
	if qt == nil || !(qt.ok[p] || qt.ok[p+1] || qt.ok[p+2] || qt.ok[p+3]) {
		return w[p*out+j0:], out
	}
	cols := j1 - j0
	blk := dq[:4*cols]
	for i := 0; i < 4; i++ {
		dst := blk[i*cols : (i+1)*cols]
		if qt.ok[p+i] {
			qt.dequantRow(p+i, j0, j1, dst)
		} else {
			copy(dst, w[(p+i)*out+j0:(p+i)*out+j1])
		}
	}
	return blk, cols
}

// weightRow returns input row p's weights over columns [j0,j1), staging
// through dq when the row is served from the int8 store.
func weightRow(w []float32, qt *quantTensor, p, out, j0, j1 int, dq []float32) []float32 {
	if qt == nil || !qt.ok[p] {
		return w[p*out+j0 : p*out+j1]
	}
	dst := dq[:j1-j0]
	qt.dequantRow(p, j0, j1, dst)
	return dst
}

// matLinearCols computes columns [j0,j1) of Y = X·W + b for X [rows, in],
// Y [rows, out], both compacted row-major. The loop order is weight block
// outer, lane inner: each 4-row block of W is loaded once and folded into
// every lane before moving on, so W streams from memory once per call
// instead of once per lane. Per element the accumulation is the scalar
// loop's (bias, then input rows ascending), so every column partition
// composes to the full-range result.
func matLinearCols(y, x, w, b []float32, qt *quantTensor, in, out, rows, j0, j1 int, dq []float32) {
	for r := 0; r < rows; r++ {
		copy(y[r*out+j0:r*out+j1], b[j0:j1])
	}
	p := 0
	for ; p+4 <= in; p += 4 {
		blk, stride := weightBlock4(w, qt, p, out, j0, j1, dq)
		for r := 0; r < rows; r++ {
			xr := x[r*in:]
			tensor.Accum4(y[r*out+j0:r*out+j1], blk, stride, xr[p], xr[p+1], xr[p+2], xr[p+3])
		}
	}
	for ; p < in; p++ {
		row := weightRow(w, qt, p, out, j0, j1, dq)
		for r := 0; r < rows; r++ {
			xv := x[r*in+p]
			yr := y[r*out+j0 : r*out+j1]
			for j := range yr {
				yr[j] += xv * row[j]
			}
		}
	}
}

// matLinear3Cols computes columns [j0,j1) of the three attention projections
// for all lanes in one pass over the shared input rows, each projection
// accumulating exactly as matLinearCols would alone. dq must
// hold 12·(j1-j0) floats: one 4-row staging block per projection, live
// simultaneously because the lane loop folds all three per weight block.
func matLinear3Cols(q, k, v, x, wq, wk, wv, bq, bk, bv []float32, tq, tk, tv *quantTensor, in, out, rows, j0, j1 int, dq []float32) {
	for r := 0; r < rows; r++ {
		copy(q[r*out+j0:r*out+j1], bq[j0:j1])
		copy(k[r*out+j0:r*out+j1], bk[j0:j1])
		copy(v[r*out+j0:r*out+j1], bv[j0:j1])
	}
	cols := j1 - j0
	var dqQ, dqK, dqV []float32
	if dq != nil {
		dqQ, dqK, dqV = dq[:4*cols], dq[4*cols:8*cols], dq[8*cols:12*cols]
	}
	p := 0
	for ; p+4 <= in; p += 4 {
		bq4, sq := weightBlock4(wq, tq, p, out, j0, j1, dqQ)
		bk4, sk := weightBlock4(wk, tk, p, out, j0, j1, dqK)
		bv4, sv := weightBlock4(wv, tv, p, out, j0, j1, dqV)
		for r := 0; r < rows; r++ {
			xr := x[r*in:]
			x0, x1, x2, x3 := xr[p], xr[p+1], xr[p+2], xr[p+3]
			tensor.Accum4(q[r*out+j0:r*out+j1], bq4, sq, x0, x1, x2, x3)
			tensor.Accum4(k[r*out+j0:r*out+j1], bk4, sk, x0, x1, x2, x3)
			tensor.Accum4(v[r*out+j0:r*out+j1], bv4, sv, x0, x1, x2, x3)
		}
	}
	for ; p < in; p++ {
		rq := weightRow(wq, tq, p, out, j0, j1, dqQ)
		rk := weightRow(wk, tk, p, out, j0, j1, dqK)
		rv := weightRow(wv, tv, p, out, j0, j1, dqV)
		for r := 0; r < rows; r++ {
			xv := x[r*in+p]
			qr := q[r*out+j0 : r*out+j1]
			kr := k[r*out+j0 : r*out+j1]
			vr := v[r*out+j0 : r*out+j1]
			for j := range qr {
				qr[j] += xv * rq[j]
				kr[j] += xv * rk[j]
				vr[j] += xv * rv[j]
			}
		}
	}
}

// gemm dispatches one Y = X·W + b call: serial below the threshold,
// column-sharded across the worker group above it. qt is the tensor's int8
// form (nil = float32); it is ignored when the session's scratch has no dq
// slabs (sc predates the store), which only skips the bandwidth win — the
// dequantized and original weights are bit-identical either way.
func (m *Model) gemm(y, x, w, b []float32, qt *quantTensor, in, out, rows int, sc *kernelScratch) {
	if len(sc.dq) == 0 {
		qt = nil
	}
	maxBlocks := int(^uint(0) >> 1)
	if qt != nil {
		maxBlocks = len(sc.dq)
	}
	pool, blocks := m.kernelBlocks(rows*in*out, out, minGemmCols, maxBlocks)
	if blocks <= 1 {
		var dq []float32
		if qt != nil {
			dq = sc.dq[0]
		}
		matLinearCols(y, x, w, b, qt, in, out, rows, 0, out, dq)
		m.serialOps.Add(1)
		return
	}
	m.parallelOps.Add(1)
	pool.parallelFor(blocks, func(bi int) {
		var dq []float32
		if qt != nil {
			dq = sc.dq[bi]
		}
		matLinearCols(y, x, w, b, qt, in, out, rows, bi*out/blocks, (bi+1)*out/blocks, dq)
	})
}

// gemm3 dispatches the fused q/k/v projection the same way as gemm.
func (m *Model) gemm3(q, k, v, x, wq, wk, wv, bq, bk, bv []float32, tq, tk, tv *quantTensor, in, out, rows int, sc *kernelScratch) {
	if len(sc.dq) == 0 {
		tq, tk, tv = nil, nil, nil
	}
	maxBlocks := int(^uint(0) >> 1)
	if tq != nil || tk != nil || tv != nil {
		maxBlocks = len(sc.dq)
	}
	pool, blocks := m.kernelBlocks(3*rows*in*out, out, minGemmCols, maxBlocks)
	if blocks <= 1 {
		var dq []float32
		if len(sc.dq) > 0 {
			dq = sc.dq[0]
		}
		matLinear3Cols(q, k, v, x, wq, wk, wv, bq, bk, bv, tq, tk, tv, in, out, rows, 0, out, dq)
		m.serialOps.Add(1)
		return
	}
	m.parallelOps.Add(1)
	pool.parallelFor(blocks, func(bi int) {
		var dq []float32
		if len(sc.dq) > 0 {
			dq = sc.dq[bi]
		}
		matLinear3Cols(q, k, v, x, wq, wk, wv, bq, bk, bv, tq, tk, tv, in, out, rows, bi*out/blocks, (bi+1)*out/blocks, dq)
	})
}

// headLogits computes the tied-head logits for rows final layer-norm rows,
// sharding the vocabulary across the worker group. lanes maps compacted row
// r to its logits row (nil = identity, the solo path); per (lane, v) the
// value is the same ⟨ln_r, tok_v⟩ Dot as the serial head, so partitioning
// the vocab changes nothing bit-wise.
func (m *Model) headLogits(logits, ln []float32, lanes []int, rows int, sc *kernelScratch) {
	d := m.Cfg.Dim
	vocab := m.Cfg.Vocab
	qt := m.activeQuant().tokTensor()
	if len(sc.dq) == 0 {
		qt = nil
	}
	maxBlocks := int(^uint(0) >> 1)
	if qt != nil {
		maxBlocks = len(sc.dq)
	}
	pool, blocks := m.kernelBlocks(rows*vocab*d, vocab, minGemmCols, maxBlocks)
	if blocks <= 1 {
		var dq []float32
		if qt != nil {
			dq = sc.dq[0]
		}
		headLogitsRange(logits, ln, m.tok.W, lanes, qt, d, vocab, rows, 0, vocab, dq)
		m.serialOps.Add(1)
		return
	}
	m.parallelOps.Add(1)
	pool.parallelFor(blocks, func(bi int) {
		var dq []float32
		if qt != nil {
			dq = sc.dq[bi]
		}
		headLogitsRange(logits, ln, m.tok.W, lanes, qt, d, vocab, rows, bi*vocab/blocks, (bi+1)*vocab/blocks, dq)
	})
}

// headLogitsRange fills logits for vocabulary rows [v0,v1). A plain
// function (not a closure over headLogits' locals) so the serial hot path
// stays allocation-free.
func headLogitsRange(logits, ln, tokW []float32, lanes []int, qt *quantTensor, d, vocab, rows, v0, v1 int, dq []float32) {
	for vv := v0; vv < v1; vv++ {
		wv := weightRow(tokW, qt, vv, d, 0, d, dq)
		for r := 0; r < rows; r++ {
			dst := r
			if lanes != nil {
				dst = lanes[r]
			}
			logits[dst*vocab+vv] = tensor.Dot(ln[r*d:(r+1)*d], wv)
		}
	}
}

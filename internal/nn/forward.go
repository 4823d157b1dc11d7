package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// PadToken is the target id excluded from the loss (matches vocab.PAD).
const PadToken = 0

// layerCache stores one block's forward activations for backprop.
type layerCache struct {
	xIn     *tensor.Mat // block input [T,D]
	ln1Mean []float32
	ln1Inv  []float32
	ln1Out  *tensor.Mat
	q, k, v *tensor.Mat
	probs   []float32 // [head][i][j] attention weights, j ≤ i (row stride T)
	attnCat *tensor.Mat
	x1      *tensor.Mat // after attention residual
	ln2Mean []float32
	ln2Inv  []float32
	ln2Out  *tensor.Mat
	h1      *tensor.Mat // MLP pre-GELU [T,F]
	h1g     *tensor.Mat // MLP post-GELU [T,F]
}

// fwdCache stores the full forward pass of one sequence.
type fwdCache struct {
	T       int
	inputs  []int
	layers  []layerCache
	xFinal  *tensor.Mat
	lnfMean []float32
	lnfInv  []float32
	lnfOut  *tensor.Mat
	logits  *tensor.Mat // [T,V]
}

// pass runs the training forward and backward, one sequence at a time. Its
// matrices are carved from a slab it owns and hands out again for every
// sequence, so only a longer sequence than any before allocates; wt holds
// the weight transposes MatMulAddTransB multiplies by, built once per
// optimizer step and shared read-only by that step's passes. A pass is not
// safe for concurrent use, and forward's cache is valid until its next call.
type pass struct {
	m    *Model
	wt   map[*Param]*tensor.Mat
	c    fwdCache
	scr  []float32 // MatMulAddTransA's Aᵀ, MatMulAddTransB's sums
	slab []float32
	off  int
}

// newPass returns a pass over m's current weights that shares the
// transposes wt, or builds its own when wt is nil.
func (m *Model) newPass(wt map[*Param]*tensor.Mat) *pass {
	if wt == nil {
		wt = m.transposeWeights(nil)
	}
	return &pass{m: m, wt: wt, scr: make([]float32, m.Cfg.Ctx*max(m.Cfg.Vocab, m.Cfg.ff()*m.Cfg.Dim))}
}

// transposeWeights sets wt[w] = Wᵀ for every weight the backward multiplies
// by transposed: the tied embedding and each block's six linear weights. It
// allocates wt on the first call and rewrites it in place after.
func (m *Model) transposeWeights(wt map[*Param]*tensor.Mat) map[*Param]*tensor.Mat {
	if wt == nil {
		wt = make(map[*Param]*tensor.Mat)
	}
	set := func(w *Param, r, c int) {
		if wt[w] == nil {
			wt[w] = tensor.NewMat(c, r)
		}
		tensor.Transpose(wt[w], tensor.FromSlice(r, c, w.W))
	}
	d, f := m.Cfg.Dim, m.Cfg.ff()*m.Cfg.Dim
	set(m.tok, m.Cfg.Vocab, d)
	for l := range m.layers {
		ly := &m.layers[l]
		for _, w := range []*Param{ly.wq, ly.wk, ly.wv, ly.wo} {
			set(w, d, d)
		}
		set(ly.w1, d, f)
		set(ly.w2, f, d)
	}
	return wt
}

// vec returns n zeroed floats of the slab, growing it when it runs out.
func (p *pass) vec(n int) []float32 {
	if p.off+n > len(p.slab) {
		p.slab, p.off = make([]float32, max(2*len(p.slab), n)), 0
	}
	v := p.slab[p.off : p.off+n : p.off+n]
	p.off += n
	clear(v)
	return v
}

// mat returns an r×c zero matrix from the slab.
func (p *pass) mat(r, c int) *tensor.Mat { return tensor.FromSlice(r, c, p.vec(r*c)) }

// transpose returns xᵀ from the slab.
func (p *pass) transpose(x *tensor.Mat) *tensor.Mat {
	y := p.mat(x.C, x.R)
	tensor.Transpose(y, x)
	return y
}

// clone returns a copy of x from the slab.
func (p *pass) clone(x *tensor.Mat) *tensor.Mat {
	y := p.mat(x.R, x.C)
	copy(y.W, x.W)
	return y
}

// forward runs the model over inputs (length T ≤ Ctx) and returns the cache.
func (p *pass) forward(inputs []int) (*fwdCache, error) {
	m := p.m
	p.off = 0
	T := len(inputs)
	if T == 0 {
		return nil, fmt.Errorf("nn: empty input")
	}
	if T > m.Cfg.Ctx {
		return nil, fmt.Errorf("nn: sequence length %d exceeds context %d", T, m.Cfg.Ctx)
	}
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	h := m.Cfg.Heads
	dh := d / h
	scale := float32(1 / math.Sqrt(float64(dh)))

	c := &p.c
	c.T, c.inputs = T, inputs
	x := p.mat(T, d)
	for t, tok := range inputs {
		if tok < 0 || tok >= m.Cfg.Vocab {
			return nil, fmt.Errorf("nn: token %d outside vocab %d", tok, m.Cfg.Vocab)
		}
		row := x.Row(t)
		copy(row, m.tok.W[tok*d:(tok+1)*d])
		pos := m.pos.W[t*d : (t+1)*d]
		for j := range row {
			row[j] += pos[j]
		}
	}

	if c.layers == nil {
		c.layers = make([]layerCache, m.Cfg.Layers)
	}
	for l := range m.layers {
		ly := &m.layers[l]
		lc := &c.layers[l]
		lc.xIn = p.clone(x)

		// LN1
		lc.ln1Out = p.mat(T, d)
		lc.ln1Mean = p.vec(T)
		lc.ln1Inv = p.vec(T)
		for t := 0; t < T; t++ {
			lc.ln1Mean[t], lc.ln1Inv[t] = tensor.LayerNormRow(lc.ln1Out.Row(t), lc.xIn.Row(t), ly.ln1g.W, ly.ln1b.W)
		}

		// Q, K, V projections.
		lc.q = p.linear(lc.ln1Out, ly.wq, ly.bq, d, d)
		lc.k = p.linear(lc.ln1Out, ly.wk, ly.bk, d, d)
		lc.v = p.linear(lc.ln1Out, ly.wv, ly.bv, d, d)

		// Causal multi-head attention, each product one rows = 1 MatAccum
		// as in attendLane: a score starts at +0 and adds q·k products in
		// ascending dimension, a value sum adds p_j·v_j in ascending j.
		lc.attnCat = p.mat(T, d)
		lc.probs = p.vec(h * T * T)
		kT := p.transpose(lc.k)
		for hd := 0; hd < h; hd++ {
			off := hd * dh
			for i := 0; i < T; i++ {
				pr := lc.probs[(hd*T+i)*T:][:i+1]
				tensor.MatAccum(pr, lc.q.W[i*d+off:], kT.W[off*T:], 1, dh, i+1, T)
				tensor.Scale(pr, scale)
				tensor.SoftmaxRow(pr)
				tensor.MatAccum(lc.attnCat.W[i*d+off:], pr, lc.v.W[off:], 1, i+1, dh, d)
			}
		}

		// Output projection + residual.
		proj := p.linear(lc.attnCat, ly.wo, ly.bo, d, d)
		lc.x1 = p.clone(lc.xIn)
		for i := range lc.x1.W {
			lc.x1.W[i] += proj.W[i]
		}

		// LN2 + MLP + residual.
		lc.ln2Out = p.mat(T, d)
		lc.ln2Mean = p.vec(T)
		lc.ln2Inv = p.vec(T)
		for t := 0; t < T; t++ {
			lc.ln2Mean[t], lc.ln2Inv[t] = tensor.LayerNormRow(lc.ln2Out.Row(t), lc.x1.Row(t), ly.ln2g.W, ly.ln2b.W)
		}
		lc.h1 = p.linear(lc.ln2Out, ly.w1, ly.b1, d, f)
		lc.h1g = p.mat(T, f)
		tensor.GELU(lc.h1g.W, lc.h1.W)
		mlpOut := p.linear(lc.h1g, ly.w2, ly.b2, f, d)
		x = p.clone(lc.x1)
		for i := range x.W {
			x.W[i] += mlpOut.W[i]
		}
	}

	c.xFinal = x
	c.lnfOut = p.mat(T, d)
	c.lnfMean = p.vec(T)
	c.lnfInv = p.vec(T)
	for t := 0; t < T; t++ {
		c.lnfMean[t], c.lnfInv[t] = tensor.LayerNormRow(c.lnfOut.Row(t), x.Row(t), m.lnfg.W, m.lnfb.W)
	}

	// Tied LM head: logits = lnfOut · tokᵀ.
	c.logits = p.mat(T, m.Cfg.Vocab)
	tensor.MatMulAddTransB(c.logits, c.lnfOut, p.wt[m.tok], p.scr)
	return c, nil
}

// linear computes x·W + b for W stored [in, out].
func (p *pass) linear(x *tensor.Mat, w, b *Param, in, out int) *tensor.Mat {
	y := p.mat(x.R, out)
	tensor.MatMul(y, x, tensor.FromSlice(in, out, w.W))
	tensor.AddRow(y, b.W)
	return y
}

// ceLoss computes the mean cross-entropy over valid targets and the count.
func ceLoss(c *fwdCache, targets []int) (float64, int) {
	var loss float64
	n := 0
	for t := 0; t < c.T; t++ {
		if targets[t] == PadToken {
			continue
		}
		row := c.logits.Row(t)
		loss += -logSoftmaxAt(row, targets[t])
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return loss / float64(n), n
}

// logSoftmaxAt returns log softmax(row)[idx], numerically stable.
func logSoftmaxAt(row []float32, idx int) float64 {
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, v := range row {
		sum += math.Exp(float64(v - maxV))
	}
	return float64(row[idx]-maxV) - math.Log(sum)
}

// backward computes gradients of the mean cross-entropy loss for one
// sequence, accumulating into g. Returns the loss.
func (p *pass) backward(seq []int, g *grads) (float64, error) {
	if len(seq) < 2 {
		return 0, fmt.Errorf("nn: sequence too short (%d)", len(seq))
	}
	m := p.m
	inputs, targets := seq[:len(seq)-1], seq[1:]
	c, err := p.forward(inputs)
	if err != nil {
		return 0, err
	}
	loss, nValid := ceLoss(c, targets)
	if nValid == 0 {
		return 0, nil
	}

	T := c.T
	d := m.Cfg.Dim
	f := m.Cfg.ff() * d
	h := m.Cfg.Heads
	dh := d / h
	scale := float32(1 / math.Sqrt(float64(dh)))
	V := m.Cfg.Vocab

	// dlogits = (softmax − onehot)/nValid on valid rows.
	dlogits := p.mat(T, V)
	for t := 0; t < T; t++ {
		if targets[t] == PadToken {
			continue
		}
		src := c.logits.Row(t)
		dst := dlogits.Row(t)
		copy(dst, src)
		tensor.SoftmaxRow(dst)
		dst[targets[t]] -= 1
		tensor.Scale(dst, 1/float32(nValid))
	}

	dTok := m.gradFor(g, m.tok)
	dPos := m.gradFor(g, m.pos)

	// Tied head backward: logits = lnfOut·tokᵀ
	//   dlnfOut = dlogits·tok ; dtok += dlogitsᵀ·lnfOut
	dLnfOut := p.mat(T, d)
	tensor.MatMul(dLnfOut, dlogits, tensor.FromSlice(V, d, m.tok.W))
	tensor.MatMulAddTransA(tensor.FromSlice(V, d, dTok), dlogits, c.lnfOut, p.scr)

	// Final LayerNorm backward.
	dx := p.mat(T, d)
	dlnfg := m.gradFor(g, m.lnfg)
	dlnfb := m.gradFor(g, m.lnfb)
	for t := 0; t < T; t++ {
		tensor.LayerNormBackwardRow(dx.Row(t), dLnfOut.Row(t), c.xFinal.Row(t), c.lnfMean[t], c.lnfInv[t], m.lnfg.W, dlnfg, dlnfb)
	}

	// Blocks in reverse.
	for l := m.Cfg.Layers - 1; l >= 0; l-- {
		ly := &m.layers[l]
		lc := &c.layers[l]

		// ---- MLP half: x2 = x1 + (gelu(ln2Out·W1+b1))·W2+b2
		dMlpOut := dx // alias: residual passes dx through to both paths
		dH1g := p.mat(T, f)
		p.backLinear(dH1g, dMlpOut, lc.h1g, ly.w2, f, d, g, ly.b2)

		dH1 := p.mat(T, f)
		tensor.GELUBackward(dH1.W, dH1g.W, lc.h1.W)

		dLn2Out := p.mat(T, d)
		p.backLinear(dLn2Out, dH1, lc.ln2Out, ly.w1, d, f, g, ly.b1)

		dx1 := p.clone(dx) // residual branch
		dln2g := m.gradFor(g, ly.ln2g)
		dln2b := m.gradFor(g, ly.ln2b)
		tmp := p.vec(d)
		for t := 0; t < T; t++ {
			tensor.LayerNormBackwardRow(tmp, dLn2Out.Row(t), lc.x1.Row(t), lc.ln2Mean[t], lc.ln2Inv[t], ly.ln2g.W, dln2g, dln2b)
			row := dx1.Row(t)
			for j := range row {
				row[j] += tmp[j]
			}
		}

		// ---- Attention half: x1 = xIn + (attnCat·Wo+bo)
		dProj := dx1
		dAttnCat := p.mat(T, d)
		p.backLinear(dAttnCat, dProj, lc.attnCat, ly.wo, d, d, g, ly.bo)

		// Per head and query i: dp_j = ⟨dOut_i, v_j⟩, the scaled score
		// gradients ds_i, and dQ_i = Σ_j ds_ij·k_j; then per key j, dV_j and
		// dK_j sum p_ij·dOut_i and ds_ij·q_i over i ≥ j in ascending i. Each
		// sum is one rows = 1 MatAccum (DESIGN.md §7).
		dQ, dK, dV := p.mat(T, d), p.mat(T, d), p.mat(T, d)
		vT := p.transpose(lc.v)
		dp, ds, dsT, probsT := p.vec(T), p.mat(T, T), p.mat(T, T), p.mat(T, T)
		for hd := 0; hd < h; hd++ {
			off := hd * dh
			probs := tensor.FromSlice(T, T, lc.probs[hd*T*T:(hd+1)*T*T])
			for i := 0; i < T; i++ {
				clear(dp)
				tensor.MatAccum(dp[:i+1], dAttnCat.W[i*d+off:], vT.W[off*T:], 1, dh, i+1, T)
				dsi := ds.W[i*T:][:i+1]
				tensor.SoftmaxBackwardRow(dsi, dp[:i+1], probs.W[i*T:][:i+1])
				tensor.Scale(dsi, scale)
				tensor.MatAccum(dQ.W[i*d+off:], dsi, lc.k.W[off:], 1, i+1, dh, d)
			}
			tensor.Transpose(probsT, probs)
			tensor.Transpose(dsT, ds)
			for j := 0; j < T; j++ {
				tensor.MatAccum(dV.W[j*d+off:], probsT.W[j*T+j:], dAttnCat.W[j*d+off:], 1, T-j, dh, d)
				tensor.MatAccum(dK.W[j*d+off:], dsT.W[j*T+j:], lc.q.W[j*d+off:], 1, T-j, dh, d)
			}
		}

		// Back through Q/K/V projections into LN1 output.
		dLn1Out := p.mat(T, d)
		p.backLinear(dLn1Out, dQ, lc.ln1Out, ly.wq, d, d, g, ly.bq)
		p.backLinear(dLn1Out, dK, lc.ln1Out, ly.wk, d, d, g, ly.bk)
		p.backLinear(dLn1Out, dV, lc.ln1Out, ly.wv, d, d, g, ly.bv)

		// LN1 backward into the block input, plus the residual branch.
		dxIn := p.clone(dx1)
		dln1g := m.gradFor(g, ly.ln1g)
		dln1b := m.gradFor(g, ly.ln1b)
		for t := 0; t < T; t++ {
			tensor.LayerNormBackwardRow(tmp, dLn1Out.Row(t), lc.xIn.Row(t), lc.ln1Mean[t], lc.ln1Inv[t], ly.ln1g.W, dln1g, dln1b)
			row := dxIn.Row(t)
			for j := range row {
				row[j] += tmp[j]
			}
		}
		dx = dxIn
	}

	// Embedding gradients.
	for t := 0; t < T; t++ {
		row := dx.Row(t)
		tok := inputs[t]
		tensor.Axpy(dTok[tok*d:(tok+1)*d], 1, row)
		tensor.Axpy(dPos[t*d:(t+1)*d], 1, row)
	}
	return loss, nil
}

// backLinear accumulates gradients for y = x·W + b:
// dxAcc += dy·Wᵀ, dW += xᵀ·dy, db += Σrows dy.
func (p *pass) backLinear(dxAcc, dy, x *tensor.Mat, w *Param, in, out int, g *grads, b *Param) {
	tensor.MatMulAddTransB(dxAcc, dy, p.wt[w], p.scr)
	tensor.MatMulAddTransA(tensor.FromSlice(in, out, p.m.gradFor(g, w)), x, dy, p.scr)
	tensor.SumRowsInto(p.m.gradFor(g, b), dy)
}

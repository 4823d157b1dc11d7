// Package nn implements a GPT-2-style decoder-only transformer language
// model in pure Go: token and learned positional embeddings, pre-LayerNorm
// residual blocks with multi-head causal self-attention and GELU MLPs, a
// weight-tied LM head, full manual backpropagation, Adam training, and
// incremental KV-cached sampling.
//
// The paper deliberately pairs LeJIT with a "generic, less powerful LLM"
// trained from scratch on the target telemetry corpus (§4, "LeJIT
// implementation"); this package is that model. It exposes per-step logits
// so the LeJIT engine can mask rule-violating tokens before sampling.
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Config describes a model architecture.
type Config struct {
	Vocab  int // vocabulary size
	Ctx    int // maximum sequence length
	Dim    int // embedding width
	Heads  int // attention heads (must divide Dim)
	Layers int // transformer blocks
	FF     int // MLP hidden multiple (0 → 4)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Vocab < 2:
		return fmt.Errorf("nn: Vocab %d < 2", c.Vocab)
	case c.Ctx < 1:
		return fmt.Errorf("nn: Ctx %d < 1", c.Ctx)
	case c.Dim < 1:
		return fmt.Errorf("nn: Dim %d < 1", c.Dim)
	case c.Heads < 1 || c.Dim%c.Heads != 0:
		return fmt.Errorf("nn: Heads %d must divide Dim %d", c.Heads, c.Dim)
	case c.Layers < 1:
		return fmt.Errorf("nn: Layers %d < 1", c.Layers)
	case c.FF < 0:
		return fmt.Errorf("nn: FF %d < 0", c.FF)
	}
	return nil
}

func (c Config) ff() int {
	if c.FF == 0 {
		return 4
	}
	return c.FF
}

// Param is one parameter tensor with its Adam state. W holds the weights;
// gradient buffers live outside the model (see grads) so that training
// workers can accumulate independently.
type Param struct {
	W    []float32
	M, V []float32 // Adam first/second moments
}

func newParam(n int) *Param {
	return &Param{W: make([]float32, n), M: make([]float32, n), V: make([]float32, n)}
}

// layerParams holds one transformer block's parameters. Linear weights are
// stored [in, out] row-major, applied as y = x·W + b.
type layerParams struct {
	ln1g, ln1b     *Param // [D]
	wq, wk, wv, wo *Param // [D, D]
	bq, bk, bv, bo *Param // [D]
	ln2g, ln2b     *Param // [D]
	w1             *Param // [D, F·D]
	b1             *Param // [F·D]
	w2             *Param // [F·D, D]
	b2             *Param // [D]
}

// Model is a trained (or trainable) transformer LM. Create with New, or
// Load a serialized one. The LM head is weight-tied to the token embedding.
type Model struct {
	Cfg    Config
	tok    *Param // [V, D]
	pos    *Param // [Ctx, D]
	layers []layerParams
	lnfg   *Param // [D]
	lnfb   *Param // [D]

	params []*Param // registry, fixed order (serialization + optimizer)
	step   int      // Adam time step
}

// KernelOps reports how many GEMMs ran sharded across a kernel worker group
// versus serially. The decode forward has one path — one goroutine per GEMM
// (DESIGN.md §15) — so both counts are always 0; the method survives only as
// the benchmark's nn.kernel_parallel_share seam, and goes together with that
// metric in the next benchmark change.
func (m *Model) KernelOps() (parallel, serial uint64) { return 0, 0 }

// New initializes a model with GPT-2-style random weights (N(0, 0.02²),
// residual projections scaled by 1/√(2·Layers), LayerNorm gains at 1).
func New(cfg Config, seed int64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Cfg: cfg}
	d, f := cfg.Dim, cfg.ff()*cfg.Dim

	reg := func(n int) *Param {
		p := newParam(n)
		m.params = append(m.params, p)
		return p
	}
	initN := func(p *Param, std float64) {
		for i := range p.W {
			p.W[i] = float32(rng.NormFloat64() * std)
		}
	}
	ones := func(p *Param) {
		for i := range p.W {
			p.W[i] = 1
		}
	}

	m.tok = reg(cfg.Vocab * d)
	initN(m.tok, 0.02)
	m.pos = reg(cfg.Ctx * d)
	initN(m.pos, 0.02)

	resStd := 0.02 / math.Sqrt(2*float64(cfg.Layers))
	m.layers = make([]layerParams, cfg.Layers)
	for l := range m.layers {
		ly := &m.layers[l]
		ly.ln1g = reg(d)
		ones(ly.ln1g)
		ly.ln1b = reg(d)
		ly.wq = reg(d * d)
		initN(ly.wq, 0.02)
		ly.bq = reg(d)
		ly.wk = reg(d * d)
		initN(ly.wk, 0.02)
		ly.bk = reg(d)
		ly.wv = reg(d * d)
		initN(ly.wv, 0.02)
		ly.bv = reg(d)
		ly.wo = reg(d * d)
		initN(ly.wo, resStd)
		ly.bo = reg(d)
		ly.ln2g = reg(d)
		ones(ly.ln2g)
		ly.ln2b = reg(d)
		ly.w1 = reg(d * f)
		initN(ly.w1, 0.02)
		ly.b1 = reg(f)
		ly.w2 = reg(f * d)
		initN(ly.w2, resStd)
		ly.b2 = reg(d)
	}
	m.lnfg = reg(d)
	ones(m.lnfg)
	m.lnfb = reg(d)
	return m, nil
}

// NumParams returns the total parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += len(p.W)
	}
	return n
}

// grads mirrors the model's parameter registry with gradient buffers.
type grads struct {
	g [][]float32
}

func (m *Model) newGrads() *grads {
	out := &grads{g: make([][]float32, len(m.params))}
	for i, p := range m.params {
		out.g[i] = make([]float32, len(p.W))
	}
	return out
}

func (g *grads) zero() {
	for _, buf := range g.g {
		for i := range buf {
			buf[i] = 0
		}
	}
}

// add accumulates other into g.
func (g *grads) add(other *grads) {
	for i, buf := range g.g {
		for j, v := range other.g[i] {
			buf[j] += v
		}
	}
}

// paramIndex locates p in the registry; used by the forward/backward code to
// find the matching grad buffer.
func (m *Model) gradFor(g *grads, p *Param) []float32 {
	for i, q := range m.params {
		if q == p {
			return g.g[i]
		}
	}
	panic("nn: parameter not registered")
}

// modelGob is the serialized form.
type modelGob struct {
	Cfg     Config
	Weights [][]float32
	Step    int
}

// Save writes the model (weights + config, not optimizer state beyond the
// step counter) to w using encoding/gob.
func (m *Model) Save(w io.Writer) error {
	g := modelGob{Cfg: m.Cfg, Step: m.step}
	for _, p := range m.params {
		g.Weights = append(g.Weights, p.W)
	}
	return gob.NewEncoder(w).Encode(g)
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var g modelGob
	if err := gob.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	m, err := New(g.Cfg, 0)
	if err != nil {
		return nil, err
	}
	if len(g.Weights) != len(m.params) {
		return nil, fmt.Errorf("nn: model has %d tensors, file has %d", len(m.params), len(g.Weights))
	}
	for i, p := range m.params {
		if len(g.Weights[i]) != len(p.W) {
			return nil, fmt.Errorf("nn: tensor %d has %d weights, file has %d", i, len(p.W), len(g.Weights[i]))
		}
		copy(p.W, g.Weights[i])
	}
	m.step = g.Step
	return m, nil
}

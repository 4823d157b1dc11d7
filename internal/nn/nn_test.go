package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Loss computes the mean next-token cross-entropy of seq (inputs seq[:len-1],
// targets seq[1:]); targets equal to PadToken are excluded.
func (m *Model) Loss(seq []int) (float64, error) { return m.newPass(nil).loss(seq) }

func (p *pass) loss(seq []int) (float64, error) {
	if len(seq) < 2 {
		return 0, fmt.Errorf("nn: sequence too short (%d)", len(seq))
	}
	c, err := p.forward(seq[:len(seq)-1])
	if err != nil {
		return 0, err
	}
	loss, _ := ceLoss(c, seq[1:])
	return loss, nil
}

// EvalLoss computes the mean per-sequence loss over a held-out set.
func (m *Model) EvalLoss(seqs [][]int) (float64, error) {
	if len(seqs) == 0 {
		return 0, fmt.Errorf("nn: no sequences")
	}
	var total float64
	p := m.newPass(nil)
	for _, s := range seqs {
		l, err := p.loss(s)
		if err != nil {
			return 0, err
		}
		total += l
	}
	return total / float64(len(seqs)), nil
}

func tinyConfig() Config {
	return Config{Vocab: 11, Ctx: 8, Dim: 8, Heads: 2, Layers: 2}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Vocab: 1, Ctx: 8, Dim: 8, Heads: 2, Layers: 1},
		{Vocab: 11, Ctx: 0, Dim: 8, Heads: 2, Layers: 1},
		{Vocab: 11, Ctx: 8, Dim: 7, Heads: 2, Layers: 1},
		{Vocab: 11, Ctx: 8, Dim: 8, Heads: 0, Layers: 1},
		{Vocab: 11, Ctx: 8, Dim: 8, Heads: 2, Layers: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestForwardShapesAndErrors(t *testing.T) {
	m, err := New(tinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.newPass(nil).forward([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.logits.R != 3 || c.logits.C != 11 {
		t.Errorf("logits %dx%d", c.logits.R, c.logits.C)
	}
	if _, err := m.newPass(nil).forward(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := m.newPass(nil).forward(make([]int, 9)); err == nil {
		t.Error("over-context input should error")
	}
	if _, err := m.newPass(nil).forward([]int{99}); err == nil {
		t.Error("out-of-vocab token should error")
	}
}

// TestBackwardNumericGradient is the make-or-break test: analytic gradients
// must match central differences for a random selection of parameters.
func TestBackwardNumericGradient(t *testing.T) {
	m, err := New(Config{Vocab: 7, Ctx: 6, Dim: 4, Heads: 2, Layers: 2}, 42)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 4, 2, 6, 3, 5}
	g := m.newGrads()
	if _, err := m.newPass(nil).backward(seq, g); err != nil {
		t.Fatal(err)
	}

	lossAt := func() float64 {
		l, err := m.Loss(seq)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	rng := rand.New(rand.NewSource(7))
	const h = 1e-3
	checked := 0
	for pi, p := range m.params {
		// A few random coordinates per tensor.
		for trial := 0; trial < 3; trial++ {
			i := rng.Intn(len(p.W))
			orig := p.W[i]
			p.W[i] = orig + h
			fp := lossAt()
			p.W[i] = orig - h
			fm := lossAt()
			p.W[i] = orig
			want := (fp - fm) / (2 * h)
			got := float64(g.g[pi][i])
			tol := 2e-2*math.Abs(want) + 2e-3
			if math.Abs(got-want) > tol {
				t.Errorf("param %d[%d]: analytic %v, numeric %v", pi, i, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no gradients checked")
	}
}

func TestTrainReducesLoss(t *testing.T) {
	m, err := New(Config{Vocab: 8, Ctx: 10, Dim: 16, Heads: 2, Layers: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A deterministic pattern corpus: sequences counting up mod 5 offset
	// by 3 (token ids 3..7).
	var seqs [][]int
	for s := 0; s < 40; s++ {
		seq := make([]int, 9)
		for i := range seq {
			seq[i] = 3 + (s+i)%5
		}
		seqs = append(seqs, seq)
	}
	before, err := m.EvalLoss(seqs)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := m.Train(seqs, TrainConfig{Epochs: 12, Batch: 8, LR: 1e-2, Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	after, err := m.EvalLoss(seqs)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/2 {
		t.Errorf("loss %v -> %v: training did not learn the pattern", before, after)
	}
	if len(hist) == 0 {
		t.Error("empty loss history")
	}
	// The pattern is deterministic: the model should predict the next
	// token almost surely.
	if after > 0.3 {
		t.Errorf("final loss %v too high for a deterministic pattern", after)
	}
}

// TestSessionMatchesForward verifies the KV-cached incremental path produces
// the same logits as the full forward pass at every position.
func TestSessionMatchesForward(t *testing.T) {
	m, err := New(tinyConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 5, 3, 7, 2, 9, 4, 6}
	c, err := m.newPass(nil).forward(seq)
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession()
	for t0, tok := range seq {
		if err := s.Append(tok); err != nil {
			t.Fatal(err)
		}
		got := s.Logits()
		want := c.logits.Row(t0)
		for v := range got {
			if math.Abs(float64(got[v]-want[v])) > 1e-3 {
				t.Fatalf("pos %d vocab %d: session %v, forward %v", t0, v, got[v], want[v])
			}
		}
	}
}

func TestSessionErrors(t *testing.T) {
	m, _ := New(tinyConfig(), 1)
	s := m.NewSession()
	if err := s.Append(100); err == nil {
		t.Error("out-of-vocab append should error")
	}
	for i := 0; i < 8; i++ {
		if err := s.Append(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(1); err == nil {
		t.Error("append beyond context should error")
	}
	fresh := m.NewSession()
	defer func() {
		if recover() == nil {
			t.Error("Logits before Append should panic")
		}
	}()
	fresh.Logits()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := New(tinyConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	seq := []int{1, 2, 3, 4}
	want, err := m.Loss(seq)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Loss(seq)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("loaded model loss %v, want %v", got, want)
	}
	if m2.NumParams() != m.NumParams() {
		t.Errorf("param counts differ: %d vs %d", m2.NumParams(), m.NumParams())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage should not load")
	}
}

func TestPadTokenExcludedFromLoss(t *testing.T) {
	m, _ := New(tinyConfig(), 2)
	// Same prefix, one with trailing PAD targets: losses over the valid
	// region must match.
	full := []int{1, 2, 3}
	padded := []int{1, 2, 3, PadToken, PadToken}
	lf, err := m.Loss(full)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := m.Loss(padded)
	if err != nil {
		t.Fatal(err)
	}
	// padded has inputs {1,2,3,PAD} and targets {2,3,PAD,PAD}: two valid
	// targets, same as full's {2,3}. Attention at the PAD input position
	// cannot influence earlier positions (causal), so losses agree.
	if math.Abs(lf-lp) > 1e-5 {
		t.Errorf("loss with pad %v, without %v", lp, lf)
	}
}

func TestTrainInputValidation(t *testing.T) {
	m, _ := New(tinyConfig(), 1)
	if _, err := m.Train(nil, TrainConfig{}); err == nil {
		t.Error("empty corpus should error")
	}
	if _, err := m.Train([][]int{{1}}, TrainConfig{}); err == nil {
		t.Error("length-1 sequence should error")
	}
	if _, err := m.Train([][]int{make([]int, 20)}, TrainConfig{}); err == nil {
		t.Error("over-context sequence should error")
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := New(tinyConfig(), 77)
	b, _ := New(tinyConfig(), 77)
	la, _ := a.Loss([]int{1, 2, 3})
	lb, _ := b.Loss([]int{1, 2, 3})
	if la != lb {
		t.Errorf("same seed, different models: %v vs %v", la, lb)
	}
	c, _ := New(tinyConfig(), 78)
	lc, _ := c.Loss([]int{1, 2, 3})
	if la == lc {
		t.Error("different seeds produced identical models (suspicious)")
	}
}

func TestLRSchedule(t *testing.T) {
	tc := TrainConfig{LR: 1.0, Warmup: 10}
	if lr := lrAt(tc, 0, 100); lr != 0.1 {
		t.Errorf("warmup start lr = %v", lr)
	}
	if lr := lrAt(tc, 9, 100); lr != 1.0 {
		t.Errorf("warmup end lr = %v", lr)
	}
	if lr := lrAt(tc, 99, 100); lr > 0.15 {
		t.Errorf("final lr = %v, want near 0.1·peak", lr)
	}
	mid := lrAt(tc, 55, 100)
	if mid <= 0.1 || mid >= 1.0 {
		t.Errorf("mid lr = %v out of range", mid)
	}
}

// trainCorpus returns n random sequences of 30–47 tokens over vocab ids
// 1..vocab-1: a pack example corpus's size and shape.
func trainCorpus(n, vocab int) [][]int {
	rng := rand.New(rand.NewSource(4))
	seqs := make([][]int, n)
	for i := range seqs {
		seqs[i] = make([]int, 30+rng.Intn(18))
		for j := range seqs[i] {
			seqs[i][j] = 1 + rng.Intn(vocab-1)
		}
	}
	return seqs
}

// TestTrainBytesIndependentOfWorkers: a batch's two halves are summed in a
// fixed order, so any Workers — and any goroutine schedule — trains the same
// model bytes. The batch of 7 leaves a last batch of 2, split 1 + 1.
func TestTrainBytesIndependentOfWorkers(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 48, Dim: 16, Heads: 2, Layers: 2}
	seqs := trainCorpus(30, cfg.Vocab)
	var want []byte
	for _, workers := range []int{1, 2, 4, 4} {
		m, err := New(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(seqs, TrainConfig{Batch: 7, Epochs: 2, Seed: 1, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Workers %d trained different bytes than Workers 1", workers)
		}
	}
}

// BenchmarkTrain times one epoch of a pack-sized model (pack.TrainLM's
// defaults: dim 32, one layer, two heads, context 48) on 200 sequences.
func BenchmarkTrain(b *testing.B) {
	cfg := Config{Vocab: 40, Ctx: 48, Dim: 32, Heads: 2, Layers: 1}
	seqs := trainCorpus(200, cfg.Vocab)
	for i := 0; i < b.N; i++ {
		m, err := New(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Train(seqs, TrainConfig{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

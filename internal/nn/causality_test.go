package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestCausalMask: logits at position t must depend only on tokens ≤ t.
// Changing a later token must leave earlier positions' logits untouched —
// the property LeJIT's incremental masking relies on.
func TestCausalMask(t *testing.T) {
	m, err := New(tinyConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	base := []int{1, 4, 2, 7, 3, 5}
	mut := append([]int(nil), base...)
	mut[4] = 9 // change a late token

	cb, err := m.newPass(nil).forward(base)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := m.newPass(nil).forward(mut)
	if err != nil {
		t.Fatal(err)
	}
	// Positions 0..3 see identical prefixes; logits must match exactly.
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < m.Cfg.Vocab; v++ {
			if cb.logits.Row(pos)[v] != cm.logits.Row(pos)[v] {
				t.Fatalf("position %d logit %d changed when a later token changed", pos, v)
			}
		}
	}
	// Position 4 consumed the changed token; logits should differ.
	same := true
	for v := 0; v < m.Cfg.Vocab; v++ {
		if cb.logits.Row(4)[v] != cm.logits.Row(4)[v] {
			same = false
			break
		}
	}
	if same {
		t.Error("position 4 logits identical despite different input token (model ignores input?)")
	}
}

// TestTrainingImprovesHeldOut: the model must generalize, not memorize —
// held-out loss on the same distribution drops substantially.
func TestTrainingImprovesHeldOut(t *testing.T) {
	m, err := New(Config{Vocab: 12, Ctx: 12, Dim: 16, Heads: 2, Layers: 2}, 31)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	gen := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			// Structured sequences: token k+3 follows k, wrapping in 3..11.
			start := 3 + rng.Intn(9)
			seq := make([]int, 10)
			for j := range seq {
				seq[j] = 3 + (start-3+j*3)%9
			}
			out[i] = seq
		}
		return out
	}
	train := gen(120)
	held := gen(30)
	before, err := m.EvalLoss(held)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(train, TrainConfig{Epochs: 8, LR: 5e-3, Seed: 2, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	after, err := m.EvalLoss(held)
	if err != nil {
		t.Fatal(err)
	}
	if after > before*0.6 {
		t.Errorf("held-out loss %v -> %v: no generalization", before, after)
	}
	if math.IsNaN(after) || math.IsInf(after, 0) {
		t.Errorf("loss diverged: %v", after)
	}
}

// TestWeightDecayShrinksWeights: AdamW-style decay must reduce weight norms
// relative to no decay, all else equal.
func TestWeightDecayShrinksWeights(t *testing.T) {
	seqs := [][]int{{1, 2, 3, 4, 5, 6}, {2, 3, 4, 5, 6, 7}}
	norm := func(wd float64) float64 {
		m, err := New(tinyConfig(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(seqs, TrainConfig{Epochs: 30, Seed: 1, Workers: 1, WeightDecay: wd}); err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, p := range m.params {
			for _, w := range p.W {
				s += float64(w) * float64(w)
			}
		}
		return math.Sqrt(s)
	}
	plain := norm(0)
	decayed := norm(0.3)
	if decayed >= plain {
		t.Errorf("weight decay did not shrink weights: %v vs %v", decayed, plain)
	}
}

package nn

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// TrainConfig controls Train.
type TrainConfig struct {
	LR          float64 // peak learning rate (0 → 3e-3)
	Batch       int     // sequences per optimizer step (0 → 16)
	Epochs      int     // passes over the corpus (0 → 1)
	ClipNorm    float64 // global gradient-norm clip (0 → 1.0)
	Warmup      int     // warmup steps (0 → 20)
	Seed        int64   // shuffling seed
	Workers     int     // goroutines running a batch's two halves: 1 runs them in turn, 0 → GOMAXPROCS; the trained bytes do not depend on it
	LogEvery    int     // steps between Logf calls (0 → never)
	Logf        func(format string, args ...any)
	WeightDecay float64 // decoupled weight decay (AdamW style; 0 → none)
}

func (tc *TrainConfig) fill() {
	if tc.LR == 0 {
		tc.LR = 3e-3
	}
	if tc.Batch == 0 {
		tc.Batch = 16
	}
	if tc.Epochs == 0 {
		tc.Epochs = 1
	}
	if tc.ClipNorm == 0 {
		tc.ClipNorm = 1.0
	}
	if tc.Warmup == 0 {
		tc.Warmup = 20
	}
	if tc.Workers == 0 {
		tc.Workers = runtime.GOMAXPROCS(0)
	}
}

// Train optimizes the model on the token sequences with Adam, returning the
// per-step mean training loss. Each sequence must have length ≥ 2 and at
// most Ctx+1 (inputs are seq[:len-1]).
func (m *Model) Train(seqs [][]int, tc TrainConfig) ([]float64, error) {
	tc.fill()
	if len(seqs) == 0 {
		return nil, fmt.Errorf("nn: no training sequences")
	}
	for i, s := range seqs {
		if len(s) < 2 {
			return nil, fmt.Errorf("nn: sequence %d too short", i)
		}
		if len(s)-1 > m.Cfg.Ctx {
			return nil, fmt.Errorf("nn: sequence %d length %d exceeds context %d", i, len(s)-1, m.Cfg.Ctx)
		}
	}
	rng := rand.New(rand.NewSource(tc.Seed))
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}

	// Each batch splits into two fixed contiguous halves, each with its own
	// pass and gradient buffers, summed in index order after both finish: the
	// sums — and so the trained bytes — are the same at any Workers.
	wt := m.transposeWeights(nil)
	var passes [2]*pass
	var halves [2]*grads
	for i := range passes {
		passes[i], halves[i] = m.newPass(wt), m.newGrads()
	}

	totalSteps := tc.Epochs * ((len(seqs) + tc.Batch - 1) / tc.Batch)
	var history []float64
	step := 0
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += tc.Batch {
			end := start + tc.Batch
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]

			mid := (len(batch) + 1) / 2
			parts := [2][]int{batch[:mid], batch[mid:]}
			var losses [2]float64
			var errs [2]error
			half := func(i int) {
				halves[i].zero()
				for _, idx := range parts[i] {
					loss, err := passes[i].backward(seqs[idx], halves[i])
					if err != nil {
						errs[i] = err
						return
					}
					losses[i] += loss
				}
			}
			if tc.Workers > 1 {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { defer wg.Done(); half(1) }()
				half(0)
				wg.Wait()
			} else {
				half(0)
				half(1)
			}
			if err := cmp.Or(errs[0], errs[1]); err != nil {
				return history, err
			}
			// No gradient sum is −0 (each starts at +0), so halves[0] +
			// halves[1] is also +0 + halves[0] + halves[1] in either order.
			total := halves[0]
			total.add(halves[1])
			batchLoss := losses[0] + losses[1]

			// Average gradients over the batch.
			inv := float32(1 / float64(len(batch)))
			for _, buf := range total.g {
				for i := range buf {
					buf[i] *= inv
				}
			}

			lr := lrAt(tc, step, totalSteps)
			m.adamStep(total, lr, tc.ClipNorm, tc.WeightDecay)
			m.transposeWeights(wt)
			step++
			history = append(history, batchLoss/float64(len(batch)))
			if tc.LogEvery > 0 && tc.Logf != nil && step%tc.LogEvery == 0 {
				tc.Logf("nn: step %d/%d epoch %d loss %.4f lr %.2e", step, totalSteps, epoch, history[len(history)-1], lr)
			}
		}
	}
	return history, nil
}

// lrAt implements linear warmup followed by cosine decay to 10% of peak.
func lrAt(tc TrainConfig, step, total int) float64 {
	if step < tc.Warmup {
		return tc.LR * float64(step+1) / float64(tc.Warmup)
	}
	if total <= tc.Warmup {
		return tc.LR
	}
	prog := float64(step-tc.Warmup) / float64(total-tc.Warmup)
	if prog > 1 {
		prog = 1
	}
	minLR := tc.LR * 0.1
	return minLR + (tc.LR-minLR)*0.5*(1+math.Cos(math.Pi*prog))
}

// adamStep applies one Adam update with global-norm clipping.
func (m *Model) adamStep(g *grads, lr, clipNorm, weightDecay float64) {
	// Global norm.
	var norm float64
	for _, buf := range g.g {
		for _, v := range buf {
			norm += float64(v) * float64(v)
		}
	}
	norm = math.Sqrt(norm)
	scale := 1.0
	if clipNorm > 0 && norm > clipNorm {
		scale = clipNorm / norm
	}

	m.step++
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(m.step))
	bc2 := 1 - math.Pow(beta2, float64(m.step))
	for pi, p := range m.params {
		buf := g.g[pi]
		for i := range p.W {
			gv := float64(buf[i]) * scale
			mo := beta1*float64(p.M[i]) + (1-beta1)*gv
			vo := beta2*float64(p.V[i]) + (1-beta2)*gv*gv
			p.M[i] = float32(mo)
			p.V[i] = float32(vo)
			upd := lr * (mo / bc1) / (math.Sqrt(vo/bc2) + eps)
			if weightDecay > 0 {
				upd += lr * weightDecay * float64(p.W[i])
			}
			p.W[i] -= float32(upd)
		}
	}
	m.transposeHead()
}

package nn

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

// This file pins the kernel worker group's contract: sharded kernels are
// bit-identical to serial ones at every worker count, across ragged
// lock-step batches, speculative rollbacks, and prefix-cache warm starts.
// The dispatch threshold is forced to zero so the test-sized kernels
// actually take the parallel path.

// forceParallel drops the dispatch threshold for the duration of the test
// so even tiny kernels go through the worker group.
func forceParallel(t *testing.T) {
	t.Helper()
	old := minParallelMadds
	minParallelMadds = 1
	t.Cleanup(func() { minParallelMadds = old })
}

// setWorkers configures the model's worker group and restores the serial
// path on cleanup (pools are per-model, and models are per-test here, but
// parked helper goroutines should not outlive the test).
func setWorkers(t *testing.T, m *Model, n int) {
	t.Helper()
	m.SetKernelWorkers(n)
	t.Cleanup(func() { m.SetKernelWorkers(1) })
}

// batchStep is one pre-computed AppendBatch call, so a schedule can be
// replayed identically under different worker counts.
type batchStep struct {
	lanes, toks []int
}

// buildSchedule turns per-lane sequences into a fixed ragged schedule:
// lanes sit out ~1 step in 4, so positions stay uneven throughout.
func buildSchedule(rng *rand.Rand, seqs [][]int) []batchStep {
	fed := make([]int, len(seqs))
	var steps []batchStep
	for {
		var st batchStep
		for i, seq := range seqs {
			if fed[i] >= len(seq) {
				continue
			}
			if len(seqs) > 1 && rng.Intn(4) == 0 {
				continue
			}
			st.lanes = append(st.lanes, i)
			st.toks = append(st.toks, seq[fed[i]])
			fed[i]++
		}
		if len(st.lanes) > 0 {
			steps = append(steps, st)
		}
		done := true
		for i, seq := range seqs {
			if fed[i] < len(seq) {
				done = false
			}
		}
		if done {
			return steps
		}
	}
}

// replaySchedule drives the schedule through a fresh BatchSession plus one
// solo Session per lane, returning every logits row in visit order (batch
// rows interleaved with the matching solo rows).
func replaySchedule(t *testing.T, m *Model, nLanes int, steps []batchStep) [][]float32 {
	t.Helper()
	bs := m.NewBatchSession(nLanes)
	solo := make([]*Session, nLanes)
	for i := range solo {
		solo[i] = m.NewSession()
	}
	var out [][]float32
	for _, st := range steps {
		if err := bs.AppendBatch(st.lanes, st.toks); err != nil {
			t.Fatal(err)
		}
		for j, lane := range st.lanes {
			if err := solo[lane].Append(st.toks[j]); err != nil {
				t.Fatal(err)
			}
			out = append(out, append([]float32(nil), bs.Logits(lane)...))
			out = append(out, append([]float32(nil), solo[lane].Logits()...))
		}
	}
	return out
}

// TestParallelKernelsMatchSerial is the sharding contract: for worker
// counts {1,2,3,8}, a ragged lock-step batch and its solo shadows produce
// logits bit-identical to the serial baseline, on shapes that exercise the
// 4-wide unroll tails and odd head dims.
func TestParallelKernelsMatchSerial(t *testing.T) {
	forceParallel(t)
	cfgs := []Config{
		{Vocab: 13, Ctx: 16, Dim: 24, Heads: 4, Layers: 2},
		{Vocab: 11, Ctx: 12, Dim: 6, Heads: 3, Layers: 2}, // dh=2, tail-heavy
	}
	for ci, cfg := range cfgs {
		m := goldenModel(t, cfg, int64(700+ci))
		rng := rand.New(rand.NewSource(int64(41 + ci)))
		seqs := laneSchedule(rng, 4, 2, cfg.Ctx, cfg.Vocab)
		steps := buildSchedule(rng, seqs)

		base := replaySchedule(t, m, len(seqs), steps)
		for _, w := range []int{1, 2, 3, 8} {
			setWorkers(t, m, w)
			got := replaySchedule(t, m, len(seqs), steps)
			if len(got) != len(base) {
				t.Fatalf("cfg %d workers %d: %d logit rows, want %d", ci, w, len(got), len(base))
			}
			for i := range base {
				compareLogitsBits(t, got[i], base[i], "sharded vs serial")
			}
		}
	}
}

// TestParallelRewindMatchesSerial rolls a speculating lane back mid-window
// under a sharded worker group and requires the post-rollback decode to be
// bit-identical to a serial lane that never speculated.
func TestParallelRewindMatchesSerial(t *testing.T) {
	forceParallel(t)
	cfg := Config{Vocab: 13, Ctx: 20, Dim: 24, Heads: 4, Layers: 2}
	m := goldenModel(t, cfg, 710)
	rng := rand.New(rand.NewSource(43))
	prefix := randSeq(rng, 5, cfg.Vocab)
	spec := randSeq(rng, 4, cfg.Vocab)
	real := randSeq(rng, 6, cfg.Vocab)

	run := func() ([]float32, []float32) {
		// Batch lane 0 speculates and rolls back; lane 1 rides along so the
		// batch stays ragged. A solo session that never speculated is the
		// reference.
		bs := m.NewBatchSession(2)
		s := m.NewSession()
		for _, tok := range prefix {
			if err := bs.AppendBatch([]int{0, 1}, []int{tok, tok}); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(tok); err != nil {
				t.Fatal(err)
			}
		}
		mark := bs.Len(0)
		snapB := append([]float32(nil), bs.Logits(0)...)
		for _, tok := range spec {
			if err := bs.AppendBatch([]int{0}, []int{tok}); err != nil {
				t.Fatal(err)
			}
		}
		if err := bs.RewindLane(0, mark, snapB); err != nil {
			t.Fatal(err)
		}
		for _, tok := range real {
			if err := bs.AppendBatch([]int{0, 1}, []int{tok, tok}); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(tok); err != nil {
				t.Fatal(err)
			}
		}
		return append([]float32(nil), bs.Logits(0)...), append([]float32(nil), s.Logits()...)
	}

	baseB, baseS := run()
	compareLogitsBits(t, baseB, baseS, "serial rewound lane vs solo")
	for _, w := range []int{2, 3, 8} {
		setWorkers(t, m, w)
		gotB, gotS := run()
		compareLogitsBits(t, gotB, baseB, "sharded rewound lane")
		compareLogitsBits(t, gotS, baseS, "sharded solo session")
	}
}

// TestParallelSeedLaneMatchesSerial warm-starts lanes from a frozen prefix
// session (the prefix-cache path) under a sharded worker group.
func TestParallelSeedLaneMatchesSerial(t *testing.T) {
	forceParallel(t)
	cfg := Config{Vocab: 13, Ctx: 20, Dim: 24, Heads: 4, Layers: 2}
	m := goldenModel(t, cfg, 720)
	rng := rand.New(rand.NewSource(47))
	prefix := randSeq(rng, 6, cfg.Vocab)
	tail := randSeq(rng, 5, cfg.Vocab)

	run := func() []float32 {
		src := m.NewSession()
		for _, tok := range prefix {
			if err := src.Append(tok); err != nil {
				t.Fatal(err)
			}
		}
		bs := m.NewBatchSession(2)
		if err := bs.SeedLane(0, src); err != nil {
			t.Fatal(err)
		}
		if err := bs.SeedLane(1, src); err != nil {
			t.Fatal(err)
		}
		for _, tok := range tail {
			if err := bs.AppendBatch([]int{0, 1}, []int{tok, tok}); err != nil {
				t.Fatal(err)
			}
			compareLogitsBits(t, bs.Logits(0), bs.Logits(1), "sibling seeded lanes")
		}
		return append([]float32(nil), bs.Logits(0)...)
	}

	base := run()
	for _, w := range []int{2, 8} {
		setWorkers(t, m, w)
		compareLogitsBits(t, run(), base, "sharded seeded lane")
	}
}

// TestSetKernelWorkers pins the configuration semantics: 0 means GOMAXPROCS,
// 1 restores the serial path, and repeat calls with the same count are
// no-ops (same pool, no helper churn) — the property engine-clone config
// re-application relies on.
func TestSetKernelWorkers(t *testing.T) {
	m := goldenModel(t, Config{Vocab: 8, Ctx: 4, Dim: 4, Heads: 2, Layers: 1}, 730)
	if got := m.KernelWorkers(); got != 1 {
		t.Fatalf("fresh model KernelWorkers() = %d, want 1", got)
	}
	if got := m.SetKernelWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetKernelWorkers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	m.SetKernelWorkers(3)
	if got := m.KernelWorkers(); got != 3 {
		t.Fatalf("KernelWorkers() = %d, want 3", got)
	}
	pool := m.kern.Load()
	m.SetKernelWorkers(3)
	if m.kern.Load() != pool {
		t.Fatal("SetKernelWorkers with an unchanged count replaced the pool")
	}
	m.SetKernelWorkers(1)
	if got := m.KernelWorkers(); got != 1 {
		t.Fatalf("KernelWorkers() after reset = %d, want 1", got)
	}
	if m.kern.Load() != nil {
		t.Fatal("serial model still holds a pool")
	}
}

// TestParallelForRunsEveryBlockOnce covers the dispatch machinery directly,
// including dispatch onto a stopped pool (helpers gone, caller drains).
func TestParallelForRunsEveryBlockOnce(t *testing.T) {
	for _, workers := range []int{2, 8} {
		p := newKernelPool(workers)
		for _, blocks := range []int{1, 3, 17} {
			counts := make([]atomic.Int32, blocks)
			p.parallelFor(blocks, func(b int) { counts[b].Add(1) })
			for b := range counts {
				if got := counts[b].Load(); got != 1 {
					t.Fatalf("workers=%d blocks=%d: block %d ran %d times", workers, blocks, b, got)
				}
			}
		}
		p.stop()
		counts := make([]atomic.Int32, 5)
		p.parallelFor(5, func(b int) { counts[b].Add(1) })
		for b := range counts {
			if got := counts[b].Load(); got != 1 {
				t.Fatalf("stopped pool: block %d ran %d times", b, got)
			}
		}
	}
}

// TestKernelOpsCounters: sharded decoding is actually exercising the
// parallel path (guards against a silently-serial "speedup").
func TestKernelOpsCounters(t *testing.T) {
	forceParallel(t)
	cfg := Config{Vocab: 13, Ctx: 8, Dim: 24, Heads: 4, Layers: 2}
	m := goldenModel(t, cfg, 740)
	setWorkers(t, m, 2)
	bs := m.NewBatchSession(2)
	if err := bs.AppendBatch([]int{0, 1}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	par, _ := m.KernelOps()
	if par == 0 {
		t.Fatal("no parallel kernel dispatches recorded with workers=2 and a zero threshold")
	}
	m.SetKernelWorkers(1)
	par0, ser0 := m.KernelOps()
	if err := bs.AppendBatch([]int{0, 1}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	par1, ser1 := m.KernelOps()
	if par1 != par0 {
		t.Fatalf("serial model recorded %d new parallel dispatches", par1-par0)
	}
	if ser1 == ser0 {
		t.Fatal("serial model recorded no serial dispatches")
	}
}

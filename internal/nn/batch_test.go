package nn

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
)

// This file pins the lock-step GEMM path to the single-row Session: for any
// batch composition — ragged starts, ragged finishes, lanes skipping steps —
// every lane's logits must be bit-identical to a solo Session fed the same
// tokens. The GEMM kernels' per-row accumulation order does not depend on the
// number of rows, so identical bits are the contract.

// laneSchedule fixes, per lane, the token sequence it will consume.
func laneSchedule(rng *rand.Rand, lanes, minLen, maxLen, vocab int) [][]int {
	seqs := make([][]int, lanes)
	for i := range seqs {
		seqs[i] = randSeq(rng, minLen+rng.Intn(maxLen-minLen+1), vocab)
	}
	return seqs
}

// runLockStepVsSolo drives a BatchSession and per-lane solo Sessions over
// the same schedule, comparing logits bit-for-bit after every step.
func runLockStepVsSolo(t *testing.T, m *Model, seqs [][]int, rng *rand.Rand) {
	t.Helper()
	bs := m.NewBatchSession(len(seqs))
	solo := make([]*Session, len(seqs))
	fed := make([]int, len(seqs))
	for i := range solo {
		solo[i] = m.NewSession()
	}
	lanes := make([]int, 0, len(seqs))
	toks := make([]int, 0, len(seqs))
	for {
		lanes, toks = lanes[:0], toks[:0]
		for i, seq := range seqs {
			if fed[i] >= len(seq) {
				continue
			}
			// Lanes advance raggedly: each occasionally sits a step out.
			if len(seqs) > 1 && rng.Intn(4) == 0 {
				continue
			}
			lanes = append(lanes, i)
			toks = append(toks, seq[fed[i]])
		}
		if len(lanes) == 0 {
			allDone := true
			for i, seq := range seqs {
				if fed[i] < len(seq) {
					allDone = false
				}
			}
			if allDone {
				return
			}
			continue
		}
		if err := bs.AppendBatch(lanes, toks); err != nil {
			t.Fatal(err)
		}
		for j, lane := range lanes {
			if err := solo[lane].Append(toks[j]); err != nil {
				t.Fatal(err)
			}
			fed[lane]++
			compareLogitsBits(t, bs.Logits(lane), solo[lane].Logits(), "lane logits")
			if bs.Len(lane) != solo[lane].Len() {
				t.Fatalf("lane %d: batch len %d, solo len %d", lane, bs.Len(lane), solo[lane].Len())
			}
		}
	}
}

// TestBatchSessionMatchesSingle is the tentpole's golden contract across
// several shapes (including dims not divisible by the 4-wide unroll, and the
// served geometry at a full 32-lane batch, where every row pair takes 2×16
// tiles) and ragged schedules where lanes start, skip, and finish at
// different steps.
func TestBatchSessionMatchesSingle(t *testing.T) {
	cases := []struct {
		cfg   Config
		lanes []int
	}{
		{Config{Vocab: 11, Ctx: 8, Dim: 8, Heads: 2, Layers: 2}, []int{1, 3, 5}},
		{Config{Vocab: 13, Ctx: 16, Dim: 24, Heads: 4, Layers: 3}, []int{1, 3, 5}},
		{Config{Vocab: 11, Ctx: 12, Dim: 6, Heads: 3, Layers: 2}, []int{1, 3, 5}}, // dh=2, tail-heavy
		{servedCfg(), []int{1, 3, 32}},
	}
	for ci, tc := range cases {
		m := goldenModel(t, tc.cfg, int64(200+ci))
		rng := rand.New(rand.NewSource(int64(31 + ci)))
		for _, lanes := range tc.lanes {
			seqs := laneSchedule(rng, lanes, 1, tc.cfg.Ctx, tc.cfg.Vocab)
			runLockStepVsSolo(t, m, seqs, rng)
		}
	}
}

// TestCloneSeedRoundTrip moves a lane out of one batch and into another at
// lengths around the page boundaries (15, 16, 17) and one short of the
// served context (47): CloneLane copies the key-transposed lane block into
// pages, SeedLane copies the pages back. The peeled Session, the reseeded
// lane and the original lane must then decode the rest of the context
// bit-identically.
func TestCloneSeedRoundTrip(t *testing.T) {
	cfg := servedCfg()
	m := goldenModel(t, cfg, 231)
	rng := rand.New(rand.NewSource(232))
	for _, n := range []int{15, 16, 17, 47} {
		src := m.NewBatchSession(3)
		dst := m.NewBatchSession(2)
		// Lanes 0 and 2 hold other histories, so a copy that strays outside
		// lane 1's block shows up in its logits.
		for _, tok := range randSeq(rng, n, cfg.Vocab) {
			if err := src.AppendBatch([]int{0, 1, 2}, []int{rng.Intn(cfg.Vocab), tok, rng.Intn(cfg.Vocab)}); err != nil {
				t.Fatal(err)
			}
		}
		peeled := src.CloneLane(1)
		if err := dst.SeedLane(1, peeled); err != nil {
			t.Fatal(err)
		}
		label := "len " + strconv.Itoa(n)
		compareLogitsBits(t, dst.Logits(1), src.Logits(1), label+" seeded")
		compareLogitsBits(t, peeled.Logits(), src.Logits(1), label+" peeled")
		for _, tok := range randSeq(rng, cfg.Ctx-n, cfg.Vocab) {
			if err := src.AppendBatch([]int{1}, []int{tok}); err != nil {
				t.Fatal(err)
			}
			if err := dst.AppendBatch([]int{1}, []int{tok}); err != nil {
				t.Fatal(err)
			}
			if err := peeled.Append(tok); err != nil {
				t.Fatal(err)
			}
			compareLogitsBits(t, dst.Logits(1), src.Logits(1), label+" seeded suffix")
			compareLogitsBits(t, peeled.Logits(), src.Logits(1), label+" peeled suffix")
		}
	}
}

// TestCloneLaneMatchesSingle peels one lane off a batch mid-decode and
// requires the resulting Session to keep producing bit-identical logits.
func TestCloneLaneMatchesSingle(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 16, Dim: 24, Heads: 4, Layers: 3}
	m := goldenModel(t, cfg, 51)
	rng := rand.New(rand.NewSource(52))

	bs := m.NewBatchSession(3)
	solo := make([]*Session, 3)
	for i := range solo {
		solo[i] = m.NewSession()
	}
	prefix := randSeq(rng, 6, cfg.Vocab)
	for _, tok := range prefix {
		if err := bs.AppendBatch([]int{0, 1, 2}, []int{tok, tok, tok}); err != nil {
			t.Fatal(err)
		}
		for _, s := range solo {
			if err := s.Append(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	peeled := bs.CloneLane(1)
	soloFork := solo[1].Clone()
	compareLogitsBits(t, peeled.Logits(), soloFork.Logits(), "peeled logits at fork")
	for _, tok := range randSeq(rng, cfg.Ctx-len(prefix), cfg.Vocab) {
		if err := peeled.Append(tok); err != nil {
			t.Fatal(err)
		}
		if err := soloFork.Append(tok); err != nil {
			t.Fatal(err)
		}
		compareLogitsBits(t, peeled.Logits(), soloFork.Logits(), "peeled suffix")
	}
	// The batch must be untouched by the peeled lane's appends.
	if err := bs.AppendBatch([]int{0, 1, 2}, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for i, s := range solo {
		if err := s.Append(i + 1); err != nil {
			t.Fatal(err)
		}
		compareLogitsBits(t, bs.Logits(i), s.Logits(), "batch after peel")
	}
}

// TestAppendBatchValidation: an invalid lane must fail with a *LaneError
// naming it and leave the whole batch unmutated (positions and logits).
func TestAppendBatchValidation(t *testing.T) {
	cfg := Config{Vocab: 11, Ctx: 4, Dim: 8, Heads: 2, Layers: 2}
	m := goldenModel(t, cfg, 61)
	bs := m.NewBatchSession(2)
	if err := bs.AppendBatch([]int{0, 1}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	want0 := append([]float32(nil), bs.Logits(0)...)

	cases := []struct {
		name  string
		lanes []int
		toks  []int
		lane  int
	}{
		{"bad token", []int{0, 1}, []int{3, cfg.Vocab}, 1},
		{"bad lane", []int{0, 7}, []int{3, 3}, 7},
		{"duplicate lane", []int{0, 0}, []int{3, 3}, 0},
	}
	for _, tc := range cases {
		var le *LaneError
		err := bs.AppendBatch(tc.lanes, tc.toks)
		if !errors.As(err, &le) {
			t.Fatalf("%s: err = %v, want *LaneError", tc.name, err)
		}
		if le.Lane != tc.lane {
			t.Errorf("%s: LaneError.Lane = %d, want %d", tc.name, le.Lane, tc.lane)
		}
		if bs.Len(0) != 1 || bs.Len(1) != 1 {
			t.Fatalf("%s: lane positions mutated: %d, %d", tc.name, bs.Len(0), bs.Len(1))
		}
		compareLogitsBits(t, bs.Logits(0), want0, tc.name+" logits")
	}

	// Context overflow on one lane: the other lane's retry must succeed.
	for bs.Len(0) < cfg.Ctx {
		if err := bs.AppendBatch([]int{0}, []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	var le *LaneError
	if err := bs.AppendBatch([]int{0, 1}, []int{1, 1}); !errors.As(err, &le) || le.Lane != 0 {
		t.Fatalf("overflow: err = %v, want *LaneError on lane 0", le)
	}
	if err := bs.AppendBatch([]int{1}, []int{1}); err != nil {
		t.Fatalf("retry without the overflowed lane: %v", err)
	}
}

// TestMatLinearMatchesVecLinear fuzzes the GEMM kernels at several rows
// against the seed's single-row loop applied row by row, across shapes
// exercising every tail residue.
func TestMatLinearMatchesVecLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fill := seedFill(rng)
	for trial := 0; trial < 50; trial++ {
		checkGemmMatchesSeed(t, rng, fill, 1+rng.Intn(6))
	}
}

// TestAppendBatchNoAllocs: the per-token hot path must not allocate — the
// arena provisions the whole working set at construction — and neither
// must reusing the session (Reset also keeps the run inside Ctx).
func TestAppendBatchNoAllocs(t *testing.T) {
	m := goldenModel(t, benchCfg(), 81)
	bs := m.NewBatchSession(4)
	lanes := []int{0, 1, 2, 3}
	toks := []int{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(16, func() {
		if err := bs.AppendBatch(lanes, toks); err != nil {
			t.Fatal(err)
		}
		bs.Reset()
	})
	if allocs != 0 {
		t.Errorf("AppendBatch allocates %.1f objects per call, want 0", allocs)
	}
}

// TestResetSessionMatchesFresh: a Reset session decodes bit-identically to a
// new one. Its first use runs every lane to the full context, so stale KV
// rows and logits sit at and past every position of the second use, which
// seeds one lane from a frozen prefix, peels another out mid-decode, and
// steps all of them raggedly next to a new session fed the same.
func TestResetSessionMatchesFresh(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 40, Dim: 24, Heads: 4, Layers: 3}
	m := goldenModel(t, cfg, 91)
	rng := rand.New(rand.NewSource(92))
	reused := m.NewBatchSession(3)
	for i := 0; i < cfg.Ctx; i++ {
		if err := reused.AppendBatch([]int{0, 1, 2}, randSeq(rng, 3, cfg.Vocab)); err != nil {
			t.Fatal(err)
		}
	}
	reused.Reset()
	fresh := m.NewBatchSession(3)
	for lane := 0; lane < 3; lane++ {
		if reused.Len(lane) != 0 {
			t.Fatalf("lane %d: length %d after Reset", lane, reused.Len(lane))
		}
	}

	frozen := m.NewSession()
	for _, tok := range randSeq(rng, PageTokens+3, cfg.Vocab) {
		if err := frozen.Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	for _, bs := range []*BatchSession{reused, fresh} {
		if err := bs.SeedLane(1, frozen); err != nil {
			t.Fatal(err)
		}
	}
	compareLogitsBits(t, reused.Logits(1), fresh.Logits(1), "seeded lane")

	var peeledR, peeledF *Session
	for step := 0; step < cfg.Ctx-frozen.Len(); step++ {
		var lanes, toks []int
		for lane := 0; lane < 3; lane++ {
			if lane == 2 && step%3 == 0 {
				continue // lane 2 lags, so positions stay ragged
			}
			lanes = append(lanes, lane)
			toks = append(toks, rng.Intn(cfg.Vocab))
		}
		for _, bs := range []*BatchSession{reused, fresh} {
			if err := bs.AppendBatch(lanes, toks); err != nil {
				t.Fatal(err)
			}
		}
		for _, lane := range lanes {
			compareLogitsBits(t, reused.Logits(lane), fresh.Logits(lane), "lane "+strconv.Itoa(lane))
			if reused.Len(lane) != fresh.Len(lane) {
				t.Fatalf("lane %d: length %d, new session %d", lane, reused.Len(lane), fresh.Len(lane))
			}
		}
		if step == 9 {
			peeledR, peeledF = reused.CloneLane(0), fresh.CloneLane(0)
		}
	}
	for _, tok := range randSeq(rng, 5, cfg.Vocab) {
		if err := peeledR.Append(tok); err != nil {
			t.Fatal(err)
		}
		if err := peeledF.Append(tok); err != nil {
			t.Fatal(err)
		}
		compareLogitsBits(t, peeledR.Logits(), peeledF.Logits(), "peeled lane")
	}
}

// BenchmarkBatchAppend measures the GEMM win directly: B lanes stepped in
// lock-step versus B solo sessions appending the same tokens. The batched
// path reads each weight block once per step instead of once per lane.
func BenchmarkBatchAppend(b *testing.B) {
	m := goldenModel(b, benchCfg(), 9)
	rng := rand.New(rand.NewSource(10))
	seq := randSeq(rng, m.Cfg.Ctx, m.Cfg.Vocab)
	for _, lanes := range []int{4, 16, 32} {
		laneIDs := make([]int, lanes)
		toks := make([]int, lanes)
		for i := range laneIDs {
			laneIDs[i] = i
		}
		b.Run("lockstep/"+strconv.Itoa(lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bs := m.NewBatchSession(lanes)
				for _, tok := range seq {
					for j := range toks {
						toks[j] = tok
					}
					if err := bs.AppendBatch(laneIDs, toks); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run("solo/"+strconv.Itoa(lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ss := make([]*Session, lanes)
				for j := range ss {
					ss[j] = m.NewSession()
				}
				for _, tok := range seq {
					for _, s := range ss {
						if err := s.Append(tok); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// TestSeedLaneMatchesSolo seeds lock-step lanes from a frozen prefix session
// (the prefix-cache hit path) and requires every subsequent step to stay
// bit-identical to a solo Session that consumed the full sequence cold.
// Two lanes share one source to prove seeding never aliases its pages.
func TestSeedLaneMatchesSolo(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 40, Dim: 24, Heads: 4, Layers: 3}
	m := goldenModel(t, cfg, 61)
	rng := rand.New(rand.NewSource(62))

	// Prefix longer than one page so SeedLane walks multiple pages.
	prefix := randSeq(rng, PageTokens+5, cfg.Vocab)
	frozen := m.NewSession()
	for _, tok := range prefix {
		if err := frozen.Append(tok); err != nil {
			t.Fatal(err)
		}
	}

	bs := m.NewBatchSession(3)
	for _, lane := range []int{0, 2} {
		if err := bs.SeedLane(lane, frozen); err != nil {
			t.Fatal(err)
		}
		compareLogitsBits(t, bs.Logits(lane), frozen.Logits(), "logits at seed")
		if bs.Len(lane) != frozen.Len() {
			t.Fatalf("lane %d: len %d after seed, want %d", lane, bs.Len(lane), frozen.Len())
		}
	}
	// Lane 1 consumes the prefix cold inside the batch.
	for _, tok := range prefix {
		if err := bs.AppendBatch([]int{1}, []int{tok}); err != nil {
			t.Fatal(err)
		}
	}

	// Divergent suffixes per lane, checked against cold solo sessions.
	solo := make([]*Session, 3)
	suffix := make([][]int, 3)
	for i := range solo {
		solo[i] = m.NewSession()
		for _, tok := range prefix {
			if err := solo[i].Append(tok); err != nil {
				t.Fatal(err)
			}
		}
		suffix[i] = randSeq(rng, cfg.Ctx-len(prefix), cfg.Vocab)
	}
	for step := 0; step < cfg.Ctx-len(prefix); step++ {
		lanes := []int{0, 1, 2}
		toks := []int{suffix[0][step], suffix[1][step], suffix[2][step]}
		if err := bs.AppendBatch(lanes, toks); err != nil {
			t.Fatal(err)
		}
		for i := range lanes {
			if err := solo[i].Append(toks[i]); err != nil {
				t.Fatal(err)
			}
			compareLogitsBits(t, bs.Logits(i), solo[i].Logits(), "seeded suffix")
		}
	}

	// The frozen source must be untouched by the lanes it seeded.
	if err := frozen.Append(1); err != nil {
		t.Fatal(err)
	}
	ref := m.NewSession()
	for _, tok := range append(append([]int(nil), prefix...), 1) {
		if err := ref.Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	compareLogitsBits(t, frozen.Logits(), ref.Logits(), "frozen after seeding")
}

// TestSeedLaneErrors pins the guard rails: advanced lanes, bad lane ids, and
// cross-model sources are rejected without mutating the batch.
func TestSeedLaneErrors(t *testing.T) {
	cfg := Config{Vocab: 11, Ctx: 8, Dim: 8, Heads: 2, Layers: 1}
	m := goldenModel(t, cfg, 71)
	src := m.NewSession()
	if err := src.Append(3); err != nil {
		t.Fatal(err)
	}

	bs := m.NewBatchSession(2)
	if err := bs.SeedLane(-1, src); err == nil {
		t.Fatal("negative lane accepted")
	}
	if err := bs.SeedLane(2, src); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
	if err := bs.AppendBatch([]int{0}, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := bs.SeedLane(0, src); err == nil {
		t.Fatal("seeding an advanced lane accepted")
	}
	m2 := goldenModel(t, cfg, 72)
	if err := bs.SeedLane(1, m2.NewSession()); err == nil {
		t.Fatal("cross-model seed accepted")
	}
}

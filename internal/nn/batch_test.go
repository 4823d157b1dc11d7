package nn

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
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
// lengths 15, 16, 17 and one short of the served context (47): CloneLane
// copies the key-transposed lane block into a snapshot of stride n, SeedLane
// copies it back at stride Ctx. The continued peel (a Clone of the frozen
// snapshot), the reseeded lane and the original lane must then decode the
// rest of the context bit-identically.
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
		frozen := src.CloneLane(1)
		if err := dst.SeedLane(1, frozen); err != nil {
			t.Fatal(err)
		}
		peeled := frozen.Clone()
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
	peeled := bs.CloneLane(1).Clone()
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

// TestCloneLaneIsExactSnapshot: a lane frozen by CloneLane holds exactly its
// prefix — KVBytes is length × 2·Layers·Dim float32s, not a rounded-up
// block — refuses Append with an error naming the snapshot and without
// moving its length or logits, and continues through Clone bit-identically
// to the lane it was taken from, up to the full context.
func TestCloneLaneIsExactSnapshot(t *testing.T) {
	cfg := servedCfg()
	m := goldenModel(t, cfg, 241)
	rng := rand.New(rand.NewSource(242))
	for _, n := range []int{1, 15, 16, 17, 47} {
		label := "len " + strconv.Itoa(n)
		bs := m.NewBatchSession(2)
		for _, tok := range randSeq(rng, n, cfg.Vocab) {
			if err := bs.AppendBatch([]int{0, 1}, []int{rng.Intn(cfg.Vocab), tok}); err != nil {
				t.Fatal(err)
			}
		}
		snap := bs.CloneLane(1)
		if got, want := snap.KVBytes(), int64(n*2*cfg.Layers*cfg.Dim*4); got != want {
			t.Fatalf("%s: KVBytes %d, want %d", label, got, want)
		}
		want := append([]float32(nil), snap.Logits()...)
		err := snap.Append(1)
		if err == nil || !strings.Contains(err.Error(), "frozen") {
			t.Fatalf("%s: Append on the snapshot: err = %v, want one naming the frozen snapshot", label, err)
		}
		if snap.Len() != n {
			t.Fatalf("%s: refused Append moved Len to %d", label, snap.Len())
		}
		compareLogitsBits(t, snap.Logits(), want, label+" logits after refused Append")

		cont := snap.Clone()
		for _, tok := range randSeq(rng, cfg.Ctx-n, cfg.Vocab) {
			if err := bs.AppendBatch([]int{1}, []int{tok}); err != nil {
				t.Fatal(err)
			}
			if err := cont.Append(tok); err != nil {
				t.Fatal(err)
			}
			compareLogitsBits(t, cont.Logits(), bs.Logits(1), label+" continued")
		}
		compareLogitsBits(t, snap.Logits(), want, label+" snapshot after its clone advanced")
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
	// Session.Append is the same forward over one lane (17 runs fit in Ctx).
	s := m.NewSession()
	if allocs := testing.AllocsPerRun(16, func() {
		if err := s.Append(1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Session.Append allocates %.1f objects per call, want 0", allocs)
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
	for _, tok := range randSeq(rng, 19, cfg.Vocab) {
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
			peeledR, peeledF = reused.CloneLane(0).Clone(), fresh.CloneLane(0).Clone()
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

// BenchmarkBatchAppend times AppendBatch through a whole context at the
// served model's shape (dim 64, 2 layers, 4 heads, Ctx 48), W lanes wide.
// lockstep/W gives every lane its own random sequence, so rows are distinct
// past the first steps; shared/W feeds every lane the same token, so each
// step's W rows collapse onto one; solo/W appends the distinct sequences
// through W Sessions. ns/lane-token is the cost of one lane's token: flat
// in W for distinct rows at this size, since the GEMM's weight reuse buys
// little when the weights sit in cache.
func BenchmarkBatchAppend(b *testing.B) {
	m := goldenModel(b, servedCfg(), 9)
	ctx := m.Cfg.Ctx
	rng := rand.New(rand.NewSource(10))
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		laneIDs := make([]int, w)
		seqs := make([][]int, w)
		for i := range laneIDs {
			laneIDs[i] = i
			seqs[i] = randSeq(rng, ctx, m.Cfg.Vocab)
		}
		step := make([]int, w)
		perLaneToken := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ctx*w), "ns/lane-token")
		}
		lockstep := func(lane func(i int) int) func(*testing.B) {
			return func(b *testing.B) {
				bs := m.NewBatchSession(w)
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					bs.Reset()
					for t := 0; t < ctx; t++ {
						for i := range step {
							step[i] = seqs[lane(i)][t]
						}
						if err := bs.AppendBatch(laneIDs, step); err != nil {
							b.Fatal(err)
						}
					}
				}
				perLaneToken(b)
			}
		}
		width := strconv.Itoa(w)
		b.Run("lockstep/"+width, lockstep(func(i int) int { return i }))
		b.Run("shared/"+width, lockstep(func(int) int { return 0 }))
		b.Run("solo/"+width, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for _, seq := range seqs {
					s := m.NewSession()
					for _, tok := range seq {
						if err := s.Append(tok); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			perLaneToken(b)
		})
	}
}

// TestSeedLaneMatchesSolo seeds lock-step lanes from a frozen prefix session
// (the prefix-cache hit path) and requires every subsequent step to stay
// bit-identical to a solo Session that consumed the full sequence cold.
// Two lanes share one source to prove seeding never aliases it.
func TestSeedLaneMatchesSolo(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 40, Dim: 24, Heads: 4, Layers: 3}
	m := goldenModel(t, cfg, 61)
	rng := rand.New(rand.NewSource(62))

	prefix := randSeq(rng, 21, cfg.Vocab)
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

// sharedRowsCfg is the model the row-sharing tests step: 12 positions, so
// lanes run into the context limit, and tokens drawn from {1, 2}, so rows
// often coincide.
func sharedRowsCfg() Config { return Config{Vocab: 7, Ctx: 12, Dim: 8, Heads: 2, Layers: 2} }

// runSharedRows interprets prog as a program over a 5-lane BatchSession and
// one solo Session per lane fed the same tokens, and after every operation
// requires each lane that holds logits to equal its solo session bit for
// bit. Each operation is three bytes: op, a lane mask and a token mask
// (lane i is given token 1 + bit i); an operation on one lane takes lane
// mask%5. By op%8:
//
//	0-2  AppendBatch over the masked lanes: twins when two lanes of one
//	     class get one token, a split when they get two;
//	3    ResetLane;
//	4    SeedLane from the last snapshot (refused unless the lane is empty);
//	5    CloneLane into the snapshot, unless the lane is empty or closed;
//	6    Consume over the masked lanes, which closes them;
//	7    AppendBatch over the masked lanes, the last of them given an
//	     out-of-vocab token.
//
// A step that reaches a full or closed lane, or the bad token, must fail
// with a *LaneError naming the first such lane and leave every lane as it
// was; the step is then retried without that lane, as the decode driver
// does.
func runSharedRows(t *testing.T, m *Model, prog []byte) {
	t.Helper()
	const n = 5
	bs := m.NewBatchSession(n)
	solo := make([]*Session, n)
	closed := make([]bool, n)
	for i := range solo {
		solo[i] = m.NewSession()
	}
	var snap, soloSnap *Session
	check := func(what string) {
		t.Helper()
		for i := range solo {
			if bs.Len(i) != solo[i].Len() {
				t.Fatalf("%s: lane %d length %d, solo %d", what, i, bs.Len(i), solo[i].Len())
			}
			if bs.Len(i) > 0 && !closed[i] {
				compareLogitsBits(t, bs.Logits(i), solo[i].Logits(), what+" lane "+strconv.Itoa(i))
			}
		}
	}
	// step feeds lanes through call, retrying without each lane refused;
	// bad is the lane given an out-of-vocab token, or -1.
	step := func(call func(lanes, toks []int) error, lanes, toks []int, bad int, consume bool) {
		t.Helper()
		for len(lanes) > 0 {
			want := -1
			for i, l := range lanes {
				if l == bad || bs.Len(l) >= m.Cfg.Ctx || closed[l] {
					want = i
					break
				}
			}
			err := call(lanes, toks)
			if want < 0 {
				if err != nil {
					t.Fatalf("step %v %v: %v", lanes, toks, err)
				}
				break
			}
			var le *LaneError
			if !errors.As(err, &le) || le.Lane != lanes[want] {
				t.Fatalf("step %v %v: err %v, want a *LaneError on lane %d", lanes, toks, err, lanes[want])
			}
			check("after a refused step")
			lanes = append(lanes[:want:want], lanes[want+1:]...)
			toks = append(toks[:want:want], toks[want+1:]...)
		}
		for i, l := range lanes {
			if err := solo[l].Append(toks[i]); err != nil {
				t.Fatal(err)
			}
			closed[l] = consume
		}
	}
	for len(prog) >= 3 {
		op, mask, tokMask := prog[0], prog[1], prog[2]
		prog = prog[3:]
		lane := int(mask) % n
		var lanes, toks []int
		for i := 0; i < n; i++ {
			if mask>>i&1 != 0 {
				lanes = append(lanes, i)
				toks = append(toks, 1+int(tokMask>>i&1))
			}
		}
		switch op % 8 {
		case 0, 1, 2:
			step(bs.AppendBatch, lanes, toks, -1, false)
		case 3:
			bs.ResetLane(lane)
			solo[lane], closed[lane] = m.NewSession(), false
		case 4:
			if snap == nil {
				continue
			}
			err := bs.SeedLane(lane, snap)
			if (err == nil) != (bs.Len(lane) == snap.Len() && solo[lane].Len() == 0) {
				t.Fatalf("SeedLane on a lane of length %d: %v", solo[lane].Len(), err)
			}
			if err == nil {
				solo[lane] = soloSnap.Clone()
			}
		case 5:
			if bs.Len(lane) > 0 && !closed[lane] {
				snap, soloSnap = bs.CloneLane(lane), solo[lane].Clone()
			}
		case 6:
			step(bs.Consume, lanes, toks, -1, true)
		case 7:
			if len(lanes) == 0 {
				continue
			}
			toks[len(toks)-1] = m.Cfg.Vocab
			step(bs.AppendBatch, lanes, toks, lanes[len(lanes)-1], false)
		}
		check("after op " + strconv.Itoa(int(op%8)))
	}
}

// TestAppendBatchSharesRows: lanes with one history that take one token
// share one class — the forward ran once for them — and still match solo
// sessions bit for bit; lanes that split take classes of their own, and
// ResetLane returns a lane to the empty class. A shared step allocates
// nothing. Then fixed and random programs run through runSharedRows.
func TestAppendBatchSharesRows(t *testing.T) {
	m := goldenModel(t, sharedRowsCfg(), 301)
	bs := m.NewBatchSession(4)
	all := []int{0, 1, 2, 3}
	if err := bs.AppendBatch(all, []int{1, 1, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := bs.AppendBatch(all, []int{3, 3, 4, 3}); err != nil {
		t.Fatal(err)
	}
	c := bs.cls
	if c[0] == 0 || c[0] != c[1] || c[2] == c[0] || c[3] == c[0] || c[3] == c[2] {
		t.Fatalf("classes %v: want lanes 0 and 1 shared, 2 and 3 apart", c)
	}
	for lane, seq := range [][]int{{1, 3}, {1, 3}, {1, 4}, {2, 3}} {
		s := m.NewSession()
		for _, tok := range seq {
			if err := s.Append(tok); err != nil {
				t.Fatal(err)
			}
		}
		compareLogitsBits(t, bs.Logits(lane), s.Logits(), "lane "+strconv.Itoa(lane))
	}
	bs.ResetLane(2)
	if bs.cls[2] != 0 {
		t.Fatalf("ResetLane left class %d", bs.cls[2])
	}
	bs.Reset()
	toks := []int{5, 5, 5, 5}
	if allocs := testing.AllocsPerRun(8, func() {
		if err := bs.AppendBatch(all, toks); err != nil {
			t.Fatal(err)
		}
		if bs.cls[0] != bs.cls[3] {
			t.Fatal("four lanes fed one token from empty do not share a class")
		}
	}); allocs != 0 {
		t.Errorf("a shared step allocates %.1f objects, want 0", allocs)
	}

	for _, prog := range sharedRowsProgs() {
		runSharedRows(t, m, prog)
	}
	rng := rand.New(rand.NewSource(302))
	for i := 0; i < 40; i++ {
		prog := make([]byte, 3*(10+rng.Intn(30)))
		rng.Read(prog)
		runSharedRows(t, m, prog)
	}
}

// sharedRowsProgs are runSharedRows programs that reach each case on
// purpose: twins from empty lanes that later split, twins past the context
// limit, a reset twin rejoining, a seeded lane beside a cold one fed the
// same tokens, a Consume followed by a refused step, and a bad token.
func sharedRowsProgs() [][]byte {
	twins := []byte{0, 0x1F, 0x00} // all five lanes, token 1
	split := []byte{0, 0x1F, 0x0A} // lanes 1 and 3 take token 2
	var full []byte
	for i := 0; i < 13; i++ {
		full = append(full, twins...)
	}
	return [][]byte{
		append(append(append([]byte{}, twins...), split...), twins...),
		full,
		append(append(append([]byte{}, twins...), 3, 2, 0), 0, 0x1F, 0),
		{0, 0x01, 0, 0, 0x01, 0, 5, 0x00, 0, 4, 0x01, 0, 0, 0x06, 0, 0, 0x06, 0, 0, 0x07, 0x02},
		{0, 0x1F, 0, 6, 0x03, 0, 0, 0x1F, 0, 6, 0x01, 0, 3, 0x00, 0, 0, 0x1F, 0},
		{0, 0x1F, 0, 7, 0x1F, 0, 7, 0x07, 0x02},
	}
}

// FuzzAppendBatchSharedRows runs runSharedRows on arbitrary programs.
func FuzzAppendBatchSharedRows(f *testing.F) {
	for _, prog := range sharedRowsProgs() {
		f.Add(prog)
	}
	m := goldenModel(f, sharedRowsCfg(), 301)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 300 {
			prog = prog[:300]
		}
		runSharedRows(t, m, prog)
	})
}

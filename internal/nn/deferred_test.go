package nn

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/race"
)

// These tests pin the deferred tail: AppendBatch parks each row before the
// last layer's attention output, and Finish (or the first Logits call)
// computes the rest. A lane's logits must be the bits an eager reader —
// one that reads Logits right after every step — sees, whichever subsets
// Finish is called on, whether a parked row is ever finished, and however a
// pending lane is copied.

// runDeferred drives a 5-lane session under test (lazy) and a reference
// session (eager) through ops random operations: AppendBatch over random
// lane subsets with tokens from {1, 2}, so twins are common; Finish over
// random subsets, empty and closed lanes included; single Logits reads;
// ResetLane; Consume; and CloneLane of a lane into a snapshot that an empty
// lane is then seeded from. eager reads Logits after every step; lazy's
// logits are compared with them by Float32bits wherever they are read. It
// returns how many parked rows were stepped past unfinished and how many
// lanes Finish served from a twin's row.
func runDeferred(t *testing.T, m *Model, rng *rand.Rand, ops int) (skipped, shared int) {
	t.Helper()
	const n = 5
	lazy, eager := m.NewBatchSession(n), m.NewBatchSession(n)
	want := make([][]float32, n) // eager's logits after the lane's last step; nil when empty
	closed := make([]bool, n)
	vocab := m.Cfg.Vocab
	subset := func(ok func(lane int) bool) []int {
		var lanes []int
		for lane := 0; lane < n; lane++ {
			if ok(lane) && rng.Intn(2) == 0 {
				lanes = append(lanes, lane)
			}
		}
		return lanes
	}
	live := func(lane int) bool { return want[lane] != nil && !closed[lane] }
	steppable := func(lane int) bool { return lazy.Len(lane) < m.Cfg.Ctx && !closed[lane] }
	for op := 0; op < ops; op++ {
		lane := rng.Intn(n)
		what := "op " + strconv.Itoa(op) + " lane " + strconv.Itoa(lane)
		switch rng.Intn(8) {
		case 0, 1, 2:
			lanes := subset(steppable)
			toks := make([]int, len(lanes))
			for i := range toks {
				toks[i] = 1 + rng.Intn(2)
			}
			for _, l := range lanes {
				if lazy.pend[l] {
					skipped++
				}
			}
			if err := lazy.AppendBatch(lanes, toks); err != nil {
				t.Fatal(err)
			}
			if err := eager.AppendBatch(lanes, toks); err != nil {
				t.Fatal(err)
			}
			for _, l := range lanes {
				want[l] = append(want[l][:0], eager.Logits(l)...)
			}
		case 3:
			lanes := subset(func(int) bool { return true })
			classes := map[uint64]bool{}
			pending := 0
			for _, l := range lanes {
				if lazy.pend[l] {
					pending++
					classes[lazy.cls[l]] = true
				}
			}
			shared += pending - len(classes)
			lazy.Finish(lanes)
			for _, l := range lanes {
				if lazy.pend[l] {
					t.Fatalf("%s: lane %d still pending after Finish", what, l)
				}
				if live(l) {
					// Read the row itself: Logits would compute a lane Finish missed.
					compareLogitsBits(t, lazy.logits[l*vocab:(l+1)*vocab], want[l], what+" Finish")
				}
			}
		case 4:
			if live(lane) {
				compareLogitsBits(t, lazy.Logits(lane), want[lane], what+" Logits")
			}
		case 5:
			lazy.ResetLane(lane)
			eager.ResetLane(lane)
			want[lane], closed[lane] = nil, false
		case 6:
			lanes := subset(steppable)
			toks := make([]int, len(lanes))
			if err := lazy.Consume(lanes, toks); err != nil {
				t.Fatal(err)
			}
			if err := eager.Consume(lanes, toks); err != nil {
				t.Fatal(err)
			}
			for _, l := range lanes {
				closed[l] = true
			}
		case 7:
			empty := slices.IndexFunc(lazy.pos, func(p int) bool { return p == 0 })
			if !live(lane) || empty < 0 {
				continue
			}
			snap, ref := lazy.CloneLane(lane), eager.CloneLane(lane)
			if err := lazy.SeedLane(empty, snap); err != nil {
				t.Fatal(err)
			}
			if err := eager.SeedLane(empty, ref); err != nil {
				t.Fatal(err)
			}
			want[empty] = append([]float32(nil), want[lane]...)
			if rng.Intn(2) == 0 {
				compareLogitsBits(t, snap.Logits(), want[lane], what+" snapshot")
			}
		}
	}
	for lane := 0; lane < n; lane++ {
		if live(lane) {
			compareLogitsBits(t, lazy.Logits(lane), want[lane], "final lane "+strconv.Itoa(lane))
		}
	}
	return skipped, shared
}

// TestDeferredTailMatchesEager runs runDeferred on models of one, two and
// three layers (with one layer, the forward computes no block tail at all)
// and requires the programs to have stepped past parked rows and shared
// Finish rows between twins.
func TestDeferredTailMatchesEager(t *testing.T) {
	for _, layers := range []int{1, 2, 3} {
		cfg := sharedRowsCfg()
		cfg.Layers = layers
		m := goldenModel(t, cfg, 310+int64(layers))
		skipped, shared := 0, 0
		for seed := int64(0); seed < 40; seed++ {
			s, sh := runDeferred(t, m, rand.New(rand.NewSource(seed)), 80)
			skipped, shared = skipped+s, shared+sh
		}
		if skipped == 0 || shared == 0 {
			t.Fatalf("%d layers: %d parked rows stepped past, %d lanes finished from a twin: the programs check too little", layers, skipped, shared)
		}
	}
}

// TestPendingLaneCopies: a lane copied while its logits are pending — frozen
// by CloneLane, seeded from that snapshot, or a Session cloned — carries its
// parked row, and every copy's logits equal the source's, read after the
// copies were made.
func TestPendingLaneCopies(t *testing.T) {
	cfg := servedCfg()
	m := goldenModel(t, cfg, 321)
	rng := rand.New(rand.NewSource(322))
	bs := m.NewBatchSession(2)
	s := m.NewSession()
	for _, tok := range randSeq(rng, 9, cfg.Vocab) {
		if err := bs.AppendBatch([]int{0, 1}, []int{rng.Intn(cfg.Vocab), tok}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	if !bs.pend[1] || !s.bs.pend[0] {
		t.Fatal("the lanes' logits are not pending before any read")
	}
	snap := bs.CloneLane(1)
	if !snap.bs.pend[0] {
		t.Fatal("CloneLane of a pending lane finished the snapshot")
	}
	seeded := m.NewBatchSession(3)
	if err := seeded.SeedLane(2, snap); err != nil {
		t.Fatal(err)
	}
	fromSnap, fromSess := snap.Clone(), s.Clone()
	if !seeded.pend[2] || !fromSnap.bs.pend[0] || !fromSess.bs.pend[0] {
		t.Fatal("a copy of a pending lane is not pending")
	}
	want := append([]float32(nil), bs.Logits(1)...)
	compareLogitsBits(t, s.Logits(), want, "solo session")
	compareLogitsBits(t, snap.Logits(), want, "frozen snapshot")
	compareLogitsBits(t, seeded.Logits(2), want, "seeded lane")
	compareLogitsBits(t, fromSnap.Logits(), want, "snapshot's clone")
	compareLogitsBits(t, fromSess.Logits(), want, "session's clone")
	if !snap.bs.pend[0] {
		t.Fatal("reading a frozen snapshot's logits wrote its pending mark")
	}
}

// TestPendingSnapshotReadOnly: a frozen snapshot taken while its lane was
// pending is shared read-only, as a prefix-cache hit is. Two goroutines
// seed lanes from it and read its logits at once (run under -race in make
// verify), and afterwards every float and mark of the snapshot is as it
// was: copyLane carries the parked row, and nothing finishes it in place.
func TestPendingSnapshotReadOnly(t *testing.T) {
	cfg := servedCfg()
	m := goldenModel(t, cfg, 331)
	rng := rand.New(rand.NewSource(332))
	prefix := randSeq(rng, 12, cfg.Vocab)
	lane := m.NewBatchSession(1)
	for _, tok := range prefix {
		if err := lane.AppendBatch([]int{0}, []int{tok}); err != nil {
			t.Fatal(err)
		}
	}
	snap := lane.CloneLane(0)
	if !snap.bs.pend[0] {
		t.Fatal("the snapshot is not pending")
	}
	state := func() [][]float32 {
		out := [][]float32{slices.Clone(snap.bs.res), slices.Clone(snap.bs.logits)}
		for l := range snap.bs.kc {
			out = append(out, slices.Clone(snap.bs.kc[l]), slices.Clone(snap.bs.vc[l]))
		}
		return out
	}
	before := state()

	ref := m.NewSession()
	for _, tok := range append(slices.Clone(prefix), 3) {
		if err := ref.Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	got := make([][2][]float32, 2)
	errs := make([]error, 2)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bs := m.NewBatchSession(2)
			if errs[g] = bs.SeedLane(g, snap); errs[g] != nil {
				return
			}
			got[g][0] = slices.Clone(snap.Logits())
			if errs[g] = bs.AppendBatch([]int{g}, []int{3}); errs[g] == nil {
				got[g][1] = slices.Clone(bs.Logits(g))
			}
		}(g)
	}
	wg.Wait()
	want := lane.Logits(0)
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		compareLogitsBits(t, got[g][0], want, "snapshot logits read concurrently")
		compareLogitsBits(t, got[g][1], ref.Logits(), "seeded lane stepped on")
	}
	if !snap.bs.pend[0] {
		t.Fatal("the snapshot's pending mark was cleared")
	}
	for i, after := range state() {
		compareLogitsBits(t, after, before[i], "snapshot buffer "+strconv.Itoa(i))
	}
}

// TestFinishNoAllocs: Finish allocates nothing, whether it computes every
// lane's row or serves twins from one.
func TestFinishNoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := goldenModel(t, benchCfg(), 341)
	bs := m.NewBatchSession(4)
	lanes := []int{0, 1, 2, 3}
	for _, toks := range [][]int{{1, 2, 3, 4}, {5, 5, 5, 5}} {
		if allocs := testing.AllocsPerRun(16, func() {
			if err := bs.AppendBatch(lanes, toks); err != nil {
				t.Fatal(err)
			}
			bs.Finish(lanes)
			bs.Reset()
		}); allocs != 0 {
			t.Errorf("tokens %v: AppendBatch + Finish allocates %.1f objects per call, want 0", toks, allocs)
		}
	}
}

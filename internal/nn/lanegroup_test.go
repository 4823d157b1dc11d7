package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// These tests pin the sharing contract core.DecodeRequests relies on when it
// splits a batch into lane groups: several goroutines decode on one *Model at
// once, each with its own sessions, and every logit bit matches a serial run.
// The goroutines share only read-only state: the model's weights and, on a
// prefix-cache hit, the frozen Session every group seeds its lanes from. Run
// under -race (make verify) these also prove the sharing is data-race free.

const laneGroups = 4

// inLaneGroups runs run(g) for g in [0, laneGroups) concurrently and returns
// each goroutine's logit rows in group order. run reports failures as errors
// because t.Fatal must stay on the test goroutine.
func inLaneGroups(t *testing.T, run func(g int) ([][]float32, error)) [][][]float32 {
	t.Helper()
	out := make([][][]float32, laneGroups)
	errs := make([]error, laneGroups)
	var wg sync.WaitGroup
	for g := 0; g < laneGroups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g], errs[g] = run(g)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("lane group %d: %v", g, err)
		}
	}
	return out
}

func compareRows(t *testing.T, got, want [][]float32, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d logit rows, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		compareLogitsBits(t, got[i], want[i], fmt.Sprintf("%s row %d", ctx, i))
	}
}

// TestParallelSeedLaneMatchesSerial warm-starts lanes in every lane group at
// once from one frozen prefix session (the cross-request prefix cache hit
// path, whose source the groups share) and requires each group to match the
// serial run bit for bit, with the frozen source left untouched.
func TestParallelSeedLaneMatchesSerial(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 40, Dim: 24, Heads: 4, Layers: 2}
	m := goldenModel(t, cfg, 720)
	rng := rand.New(rand.NewSource(47))
	prefix := randSeq(rng, 22, cfg.Vocab)
	tails := make([][]int, laneGroups)
	for g := range tails {
		tails[g] = randSeq(rng, 5, cfg.Vocab)
	}
	// The source is a CloneLane snapshot, as a prefix-cache hit is.
	lane := m.NewBatchSession(1)
	for _, tok := range prefix {
		if err := lane.AppendBatch([]int{0}, []int{tok}); err != nil {
			t.Fatal(err)
		}
	}
	src := lane.CloneLane(0)
	srcLogits := append([]float32(nil), src.Logits()...)

	// Each group seeds two sibling lanes and feeds them its own tail.
	run := func(g int) ([][]float32, error) {
		bs := m.NewBatchSession(2)
		for lane := 0; lane < 2; lane++ {
			if err := bs.SeedLane(lane, src); err != nil {
				return nil, err
			}
		}
		var rows [][]float32
		for _, tok := range tails[g] {
			if err := bs.AppendBatch([]int{0, 1}, []int{tok, tok}); err != nil {
				return nil, err
			}
			rows = append(rows, append([]float32(nil), bs.Logits(0)...))
			rows = append(rows, append([]float32(nil), bs.Logits(1)...))
		}
		return rows, nil
	}

	base := make([][][]float32, laneGroups)
	for g := range base {
		rows, err := run(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(rows); i += 2 {
			compareLogitsBits(t, rows[i], rows[i+1], "sibling seeded lanes")
		}
		base[g] = rows
	}
	for g, rows := range inLaneGroups(t, run) {
		compareRows(t, rows, base[g], fmt.Sprintf("lane group %d", g))
	}

	// The shared source still decodes as if no lane had been seeded from it.
	compareLogitsBits(t, src.Logits(), srcLogits, "frozen source logits")
	cont := src.Clone()
	if err := cont.Append(1); err != nil {
		t.Fatal(err)
	}
	ref := m.NewSession()
	for _, tok := range append(append([]int(nil), prefix...), 1) {
		if err := ref.Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	compareLogitsBits(t, cont.Logits(), ref.Logits(), "frozen source after seeding")
}

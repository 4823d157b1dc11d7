package nn

import (
	"math/rand"
	"testing"
)

// These tests pin the rewind contract speculative decoding depends on
// (DESIGN.md §13): after RewindLane(lane, pos, snap) a lane re-fed the same
// suffix must produce bit-identical logits to one that never diverged, and
// its batch-mates must be untouched.

func TestRewindLaneReDecodesBitIdentical(t *testing.T) {
	cfg := Config{Vocab: 13, Ctx: 24, Dim: 24, Heads: 4, Layers: 3}
	m := goldenModel(t, cfg, 94)
	rng := rand.New(rand.NewSource(9))
	const lanes = 3
	seqs := laneSchedule(rng, lanes, 10, 20, cfg.Vocab)

	bs := m.NewBatchSession(lanes)
	ref := make([]*Session, lanes)
	for i := range ref {
		ref[i] = m.NewSession()
	}
	// Feed every lane its first 5 tokens, snapshotting lane 1 at position 3.
	var snap []float32
	const rewindLane, rewindPos = 1, 3
	for step := 0; step < 5; step++ {
		ls, ts := []int{}, []int{}
		for i, seq := range seqs {
			ls = append(ls, i)
			ts = append(ts, seq[step])
			if err := ref[i].Append(seq[step]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bs.AppendBatch(ls, ts); err != nil {
			t.Fatal(err)
		}
		if step == rewindPos-1 {
			snap = append([]float32(nil), bs.Logits(rewindLane)...)
		}
	}
	if err := bs.RewindLane(rewindLane, rewindPos, snap); err != nil {
		t.Fatal(err)
	}
	if bs.Len(rewindLane) != rewindPos {
		t.Fatalf("Len(lane) = %d after RewindLane(%d)", bs.Len(rewindLane), rewindPos)
	}
	// Rebuild the reference for the rewound lane and continue all lanes in
	// lock-step: the rewound lane replays seq[3:5] while the others advance
	// raggedly past it, so the batch stays desync-free by construction.
	ref[rewindLane] = m.NewSession()
	for _, tok := range seqs[rewindLane][:rewindPos] {
		if err := ref[rewindLane].Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	fed := []int{5, rewindPos, 5}
	for {
		ls, ts := []int{}, []int{}
		for i, seq := range seqs {
			if fed[i] < len(seq) {
				ls = append(ls, i)
				ts = append(ts, seq[fed[i]])
			}
		}
		if len(ls) == 0 {
			break
		}
		if err := bs.AppendBatch(ls, ts); err != nil {
			t.Fatal(err)
		}
		for j, lane := range ls {
			if err := ref[lane].Append(ts[j]); err != nil {
				t.Fatal(err)
			}
			fed[lane]++
			compareLogitsBits(t, bs.Logits(lane), ref[lane].Logits(), "lane logits after rewind")
		}
	}
}

func TestRewindLaneErrors(t *testing.T) {
	cfg := Config{Vocab: 11, Ctx: 16, Dim: 8, Heads: 2, Layers: 2}
	m := goldenModel(t, cfg, 95)
	bs := m.NewBatchSession(2)
	if err := bs.AppendBatch([]int{0}, []int{1}); err != nil {
		t.Fatal(err)
	}
	snap := append([]float32(nil), bs.Logits(0)...)
	if err := bs.RewindLane(2, 0, snap); err == nil {
		t.Error("out-of-range lane accepted")
	}
	if err := bs.RewindLane(0, 2, snap); err == nil {
		t.Error("RewindLane past Len accepted")
	}
	if err := bs.RewindLane(0, 1, snap[:2]); err == nil {
		t.Error("short logits snapshot accepted")
	}
}

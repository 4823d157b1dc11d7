package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameStream draws n values from r and from ref, cycling through Int63,
// Uint64, Float64 and Intn (small, power-of-two and beyond 31 bits, so
// every Intn branch and its retry loop runs), and reports the first
// difference.
func sameStream(r, ref *rand.Rand, n int) error {
	for i := 0; i < n; i++ {
		var a, b any
		switch i % 6 {
		case 0:
			a, b = r.Int63(), ref.Int63()
		case 1:
			a, b = r.Uint64(), ref.Uint64()
		case 2:
			a, b = r.Float64(), ref.Float64()
		case 3:
			a, b = r.Intn(10), ref.Intn(10)
		case 4:
			a, b = r.Intn(64), ref.Intn(64)
		case 5:
			a, b = r.Intn(3<<61), ref.Intn(3<<61)
		}
		if a != b {
			return fmt.Errorf("draw %d: %v, math/rand source %v", i, a, b)
		}
	}
	return nil
}

// TestSeededRNGMatchesNewSource: re-seeding an engine's RNG yields the stream
// of a fresh rand.New(rand.NewSource(seed)), whatever it drew before — for
// the seeds at math/rand's reduction edges (0 and every multiple of 2³¹−1
// map to 89482311, negative seeds are folded up, the int64 extremes) and
// for MixSeed's seeds, past two wraps of the 607-word state, and again
// after a re-seed in mid-stream.
func TestSeededRNGMatchesNewSource(t *testing.T) {
	e := nnTestEngine(t)
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, 89482311, math.MinInt64, math.MaxInt64}
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, MixSeed(9, i))
	}
	for k, seed := range seeds {
		if err := sameStream(e.seededRNG(seed), rand.New(rand.NewSource(seed)), 1300); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if k%100 != 0 {
			continue
		}
		// Re-seed part-way through the first wrap, where some state words
		// are computed and written and the rest are not.
		next := seed ^ 0x5bd1e995
		r := e.seededRNG(seed)
		r.Float64()
		r.Seed(next)
		if err := sameStream(r, rand.New(rand.NewSource(next)), 1300); err != nil {
			t.Fatalf("seed %d re-seeded with %d: %v", seed, next, err)
		}
	}
}

// FuzzSeededRNGMatchesNewSource is TestSeededRNGMatchesNewSource for fuzzed
// seeds and stream lengths.
func FuzzSeededRNGMatchesNewSource(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(-int32max), uint16(1300))
	f.Add(int64(math.MinInt64), uint16(25))
	e := new(Engine)
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		if err := sameStream(e.seededRNG(seed), rand.New(rand.NewSource(seed)), int(draws)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// BenchmarkSeededRNG times a lane's RNG set-up plus its draws: math/rand's
// source, which fills its 607-word state on Seed, against laneSource, which
// computes a word on its first read. A record draws about 25 Float64s; 700
// draws pass one wrap of the state, where laneSource has computed every word.
func BenchmarkSeededRNG(b *testing.B) {
	for _, draws := range []int{25, 700} {
		for _, src := range []struct {
			name string
			new  func() rand.Source
		}{
			{"stdlib", func() rand.Source { return rand.NewSource(1) }},
			{"lane", func() rand.Source { return new(laneSource) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", src.name, draws), func(b *testing.B) {
				r := rand.New(src.new())
				var sink float64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.Seed(MixSeed(1, i))
					for j := 0; j < draws; j++ {
						sink += r.Float64()
					}
				}
				if sink < 0 {
					b.Fatal(sink)
				}
			})
		}
	}
}

package prefixcache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/race"
)

var (
	testModelOnce sync.Once
	testModel     *nn.Model
)

func model(t testing.TB) *nn.Model {
	testModelOnce.Do(func() {
		m, err := nn.New(nn.Config{Vocab: 16, Ctx: 64, Dim: 8, Heads: 2, Layers: 1}, 3)
		if err != nil {
			panic(err)
		}
		testModel = m
	})
	return testModel
}

// sessFor builds a frozen snapshot that has consumed exactly key, the way
// the decode loop captures one: a lane frozen out by CloneLane.
func sessFor(t testing.TB, key []int) *nn.Session {
	bs := model(t).NewBatchSession(1)
	for _, tok := range key {
		if err := bs.AppendBatch([]int{0}, []int{tok}); err != nil {
			t.Fatal(err)
		}
	}
	return bs.CloneLane(0)
}

// sameLogits reports whether a and b hold the same floats.
func sameLogits(a, b []float32) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// advanceClone continues a hit's snapshot privately, as a reader may, and
// reports whether the snapshot itself came through untouched.
func advanceClone(h *Hit) (untouched bool, err error) {
	n, want := h.Sess.Len(), append([]float32(nil), h.Sess.Logits()...)
	c := h.Sess.Clone()
	if err := c.Append(2); err != nil {
		return false, err
	}
	return h.Sess.Len() == n && sameLogits(h.Sess.Logits(), want), nil
}

func snapFor(t testing.TB, key []int, epoch uint64) *Snapshot {
	return &Snapshot{Sess: sessFor(t, key), Model: []int64{0, 42}, RuleEpoch: epoch}
}

// TestExactMatchLookup: a lookup hits only the key it was stored under —
// never a stored key that is a prefix of it, nor one it is a prefix of.
func TestExactMatchLookup(t *testing.T) {
	c := New(64 << 20)
	short := []int{1, 5, 6}
	long := []int{1, 5, 6, 7, 8}
	if !c.Insert(short, snapFor(t, short, 9)) {
		t.Fatal("insert short rejected")
	}
	if !c.Insert(long, snapFor(t, long, 9)) {
		t.Fatal("insert long rejected")
	}

	cases := []struct {
		key []int
		hit bool
	}{
		{[]int{1, 5, 6, 7, 8}, true},        // exact long
		{[]int{1, 5, 6}, true},              // exact short
		{[]int{1, 5, 6, 7, 8, 9, 9}, false}, // extends long
		{[]int{1, 5, 6, 7}, false},          // between short and long
		{[]int{1, 5}, false},                // prefix of short
		{[]int{2, 5, 6}, false},             // same length as short, other tokens
		{[]int{1, 5, 6 + 128}, false},       // differs where a varint spans bytes
		{nil, false},
	}
	for i, tc := range cases {
		h := c.Lookup(tc.key, 9)
		if !tc.hit {
			if h != nil {
				t.Fatalf("case %d: want miss, got a hit of %d tokens", i, h.Sess.Len())
			}
			continue
		}
		if h == nil {
			t.Fatalf("case %d: want hit, got miss", i)
		}
		if h.Sess.Len() != len(tc.key) {
			t.Fatalf("case %d: got a hit of %d tokens, want %d", i, h.Sess.Len(), len(tc.key))
		}
		if h.Model[1] != 42 {
			t.Fatalf("case %d: model not restored", i)
		}
		// The hit's Model is private; its Sess is the snapshot, read-only:
		// a Clone advances privately and the cached entry stays untouched.
		h.Model[1] = -1
		if untouched, err := advanceClone(h); err != nil {
			t.Fatal(err)
		} else if !untouched {
			t.Fatalf("case %d: advancing a Clone of the hit moved the snapshot", i)
		}
	}

	st := c.Stats()
	if st.Hits != 2 || st.Misses != 6 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 6 misses, 2 entries", st)
	}
}

func TestStaleEpochMissesAndDrops(t *testing.T) {
	c := New(64 << 20)
	key := []int{1, 2, 3, 4}
	if !c.Insert(key, snapFor(t, key, 7)) {
		t.Fatal("insert rejected")
	}
	// A different rule epoch must miss — and purge the stale entry.
	if h := c.Lookup(key, 8); h != nil {
		t.Fatalf("stale snapshot served: %d tokens", h.Sess.Len())
	}
	st := c.Stats()
	if st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("stale entry not dropped: %+v", st)
	}
	// Even the capturing epoch now misses: the entry is gone, not hidden.
	if h := c.Lookup(key, 7); h != nil {
		t.Fatal("dropped entry still served")
	}

	// Same-key insert at a new epoch replaces rather than duplicates.
	if !c.Insert(key, snapFor(t, key, 7)) {
		t.Fatal("reinsert rejected")
	}
	if !c.Insert(key, snapFor(t, key, 8)) {
		t.Fatal("cross-epoch replacement rejected")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("replacement duplicated: %+v", st)
	}
	if h := c.Lookup(key, 8); h == nil {
		t.Fatal("replacement not served")
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	c := New(64 << 20)
	key := []int{1, 2, 3}
	if !c.Insert(key, snapFor(t, key, 5)) {
		t.Fatal("first insert rejected")
	}
	if c.NeedsInsert(key, 5) {
		t.Fatal("NeedsInsert true for cached key")
	}
	if !c.NeedsInsert(key, 6) {
		t.Fatal("NeedsInsert false for stale-epoch key")
	}
	if !c.NeedsInsert([]int{1, 2}, 5) {
		t.Fatal("NeedsInsert false for a prefix of a cached key")
	}
	if c.Insert(key, snapFor(t, key, 5)) {
		t.Fatal("duplicate insert accepted")
	}
	if st := c.Stats(); st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// Every key is two tokens long, so every entry is charged the same: the
	// snapshot's KVBytes, its two-value model, its key and the overhead.
	per := sessFor(t, []int{1, 2}).KVBytes() + 16 + 2*8 + entryOverhead

	// Budget for exactly three entries.
	c := New(3 * per)
	keys := [][]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}}
	for _, k := range keys[:3] {
		if !c.Insert(k, snapFor(t, k, 1)) {
			t.Fatalf("insert %v rejected", k)
		}
	}
	// Touch {1,2} so {2,3} becomes least recently used.
	if h := c.Lookup(keys[0], 1); h == nil {
		t.Fatal("expected hit")
	}
	if !c.Insert(keys[3], snapFor(t, keys[3], 1)) {
		t.Fatal("insert over budget rejected instead of evicting")
	}
	if h := c.Lookup(keys[1], 1); h != nil {
		t.Fatalf("LRU entry %v survived eviction", keys[1])
	}
	for _, k := range [][]int{keys[0], keys[2], keys[3]} {
		if h := c.Lookup(k, 1); h == nil {
			t.Fatalf("entry %v wrongly evicted", k)
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.BytesResident != 3*per {
		t.Fatalf("stats = %+v, want 3 entries, 1 eviction, %d bytes", st, 3*per)
	}

	// A snapshot bigger than the whole budget is rejected outright.
	tiny := New(per - 1)
	if tiny.Insert(keys[0], snapFor(t, keys[0], 1)) {
		t.Fatal("over-budget snapshot accepted")
	}
}

// TestConcurrentHitEvictInsert is the race-detector workout: writers insert
// snapshots into a deliberately tiny budget (forcing constant eviction)
// while readers hit, miss, continue clones of the shared snapshots they hit
// (even after eviction drops them), and probe with a stale epoch. Run under
// -race via make verify.
func TestConcurrentHitEvictInsert(t *testing.T) {
	per := sessFor(t, []int{1, 2, 3, 4}).KVBytes() + 16 + 4*8 + entryOverhead
	c := New(4 * per) // 4 entries resident → every insert evicts

	keys := make([][]int, 12)
	for i := range keys {
		keys[i] = []int{1 + i%3, 2 + i%5, 3 + i%7, 4 + i}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(3) {
				case 0:
					if c.NeedsInsert(k, 1) {
						c.Insert(k, snapFor(t, k, 1))
					}
				case 1:
					if h := c.Lookup(k, 1); h != nil {
						if untouched, err := advanceClone(h); err != nil {
							t.Error(err)
						} else if !untouched {
							t.Error("advancing a Clone of a shared hit moved the snapshot")
						}
					}
				case 2:
					c.Lookup(k, 99) // stale probe: must miss, may drop
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesResident > 4*per {
		t.Fatalf("resident %d bytes exceeds budget %d", st.BytesResident, 4*per)
	}
}

// TestHitIsSnapshot: a hit hands out the cached snapshot itself — no copy,
// so a lookup allocates only the Hit and its Model copy — and a reader that
// Clones it and advances the clone leaves the cached entry unchanged.
func TestHitIsSnapshot(t *testing.T) {
	c := New(64 << 20)
	key := []int{1, 5, 6, 7}
	snap := snapFor(t, key, 3)
	want := append([]float32(nil), snap.Sess.Logits()...)
	if !c.Insert(key, snap) {
		t.Fatal("insert rejected")
	}
	h := c.Lookup(key, 3)
	if h == nil {
		t.Fatal("inserted snapshot missed")
	}
	if h.Sess != snap.Sess {
		t.Fatal("hit's Sess is not the inserted snapshot")
	}
	if !race.Enabled {
		if allocs := testing.AllocsPerRun(20, func() { c.Lookup(key, 3) }); allocs > 2 {
			t.Errorf("a hit allocates %.0f objects, want <= 2 (the Hit and its Model copy)", allocs)
		}
	}
	cl := h.Sess.Clone()
	for _, tok := range []int{2, 3, 4} {
		if err := cl.Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	again := c.Lookup(key, 3)
	if again == nil || again.Sess != snap.Sess {
		t.Fatal("the entry changed after its hit was cloned and advanced")
	}
	if again.Sess.Len() != len(key) || !sameLogits(again.Sess.Logits(), want) {
		t.Fatalf("cached snapshot moved: %d tokens, logits equal %v", again.Sess.Len(), sameLogits(again.Sess.Logits(), want))
	}
}

// refEntry is one entry of refCache.
type refEntry struct {
	key   []int
	snap  *Snapshot
	bytes int64
}

// refCache is the naive model FuzzCacheMatchesReference checks Cache
// against: a slice in LRU order, most recent first, searched linearly.
type refCache struct {
	max, bytes                       int64
	ents                             []refEntry
	hits, misses, evictions, inserts uint64
}

func (r *refCache) find(key []int) int {
	for i, e := range r.ents {
		if slices.Equal(e.key, key) {
			return i
		}
	}
	return -1
}

func (r *refCache) removeAt(i int) {
	r.bytes -= r.ents[i].bytes
	r.ents = append(r.ents[:i], r.ents[i+1:]...)
	r.evictions++
}

func (r *refCache) toFront(i int) {
	e := r.ents[i]
	copy(r.ents[1:i+1], r.ents[:i])
	r.ents[0] = e
}

func (r *refCache) lookup(key []int, epoch uint64) *Snapshot {
	i := r.find(key)
	if i >= 0 && r.ents[i].snap.RuleEpoch != epoch {
		r.removeAt(i)
		i = -1
	}
	if i < 0 {
		r.misses++
		return nil
	}
	r.hits++
	r.toFront(i)
	return r.ents[0].snap
}

func (r *refCache) needsInsert(key []int, epoch uint64) bool {
	i := r.find(key)
	return i < 0 || r.ents[i].snap.RuleEpoch != epoch
}

func (r *refCache) insert(key []int, snap *Snapshot, bytes int64) bool {
	if bytes > r.max {
		return false
	}
	if i := r.find(key); i >= 0 {
		if r.ents[i].snap.RuleEpoch == snap.RuleEpoch {
			r.toFront(i)
			return false
		}
		r.removeAt(i)
	}
	r.ents = append([]refEntry{{key: key, snap: snap, bytes: bytes}}, r.ents...)
	r.bytes += bytes
	r.inserts++
	for r.bytes > r.max {
		r.removeAt(len(r.ents) - 1)
	}
	return true
}

// FuzzCacheMatchesReference runs random Insert / Lookup / NeedsInsert
// sequences, with random epochs and entry sizes, through a Cache and
// through refCache: every answer and, after every operation, every Stats
// field must agree. The keys include prefixes of one another, so a cache
// that matched a key's prefix instead of the key shows.
func FuzzCacheMatchesReference(f *testing.F) {
	keys := [][]int{{}, {1}, {1, 5}, {1, 5, 6}, {1, 5, 6, 7, 8}, {2, 5, 6}, {1, 6, 5}}
	sess := make([]*nn.Session, len(keys))
	for i, k := range keys {
		sess[i] = sessFor(f, k)
	}
	f.Add(uint8(4), []byte{0, 3, 0, 2, 1, 3, 0, 2, 0, 4, 1, 9, 1, 3, 1, 0, 2, 4, 0, 0})
	f.Add(uint8(1), []byte{0, 1, 0, 0, 0, 2, 0, 0, 1, 1, 1, 0, 0, 2, 1, 5})
	f.Add(uint8(0), []byte{0, 4, 2, 200, 1, 4, 2, 0})
	// Insert {1} and {}, hit {1}, then insert {1, 5}: the budget holds two of
	// the three, so recency alone decides that {} goes.
	f.Add(uint8(3), []byte{0, 1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, budget uint8, ops []byte) {
		// budget counts entries of the smallest charge; 0 admits nothing.
		unit := sess[0].KVBytes() + entryOverhead
		c, ref := New(int64(budget)*unit), &refCache{max: int64(budget) * unit}
		for len(ops) >= 4 {
			op, k, epoch, size := ops[0]%3, int(ops[1])%len(keys), uint64(ops[2]%3), int(ops[3])
			ops = ops[4:]
			key := keys[k]
			switch op {
			case 0:
				snap := &Snapshot{Sess: sess[k], Model: make([]int64, size%64), RuleEpoch: epoch}
				bytes := snap.Sess.KVBytes() + int64(len(snap.Model))*8 + int64(len(key))*8 + entryOverhead
				if got, want := c.Insert(key, snap), ref.insert(key, snap, bytes); got != want {
					t.Fatalf("Insert(%v, epoch %d) = %v, reference %v", key, epoch, got, want)
				}
			case 1:
				h, want := c.Lookup(key, epoch), ref.lookup(key, epoch)
				if (h == nil) != (want == nil) {
					t.Fatalf("Lookup(%v, epoch %d) hit %v, reference %v", key, epoch, h != nil, want != nil)
				}
				if h != nil && (h.Sess != want.Sess || len(h.Model) != len(want.Model)) {
					t.Fatalf("Lookup(%v, epoch %d) served another entry's snapshot", key, epoch)
				}
			case 2:
				if got, want := c.NeedsInsert(key, epoch), ref.needsInsert(key, epoch); got != want {
					t.Fatalf("NeedsInsert(%v, epoch %d) = %v, reference %v", key, epoch, got, want)
				}
			}
			want := Stats{
				Hits: ref.hits, Misses: ref.misses, Evictions: ref.evictions,
				Inserts: ref.inserts, BytesResident: ref.bytes, Entries: len(ref.ents),
			}
			if st := c.Stats(); st != want {
				t.Fatalf("after op %d on %v: stats %+v, reference %+v", op, key, st, want)
			}
		}
	})
}

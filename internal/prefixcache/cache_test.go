package prefixcache

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
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

// sessFor builds a frozen session that has consumed exactly key.
func sessFor(t testing.TB, key []int) *nn.Session {
	s := model(t).NewSession()
	for _, tok := range key {
		if err := s.Append(tok); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func snapFor(t testing.TB, key []int, epoch uint64, slots int) *Snapshot {
	return &Snapshot{
		Sess:      sessFor(t, key),
		Model:     []int64{0, 42},
		RuleEpoch: epoch,
		Slots:     slots,
	}
}

func TestLongestPrefixLookup(t *testing.T) {
	c := New(64 << 20)
	short := []int{1, 5, 6}
	long := []int{1, 5, 6, 7, 8}
	if !c.Insert(short, snapFor(t, short, 9, 1)) {
		t.Fatal("insert short rejected")
	}
	if !c.Insert(long, snapFor(t, long, 9, 2)) {
		t.Fatal("insert long rejected")
	}

	cases := []struct {
		key        []int
		wantTokens int // 0 = miss
		wantSlots  int
	}{
		{[]int{1, 5, 6, 7, 8, 9, 9}, 5, 2}, // deepest wins
		{[]int{1, 5, 6, 7, 9}, 3, 1},       // diverges inside long's edge
		{[]int{1, 5, 6}, 3, 1},             // exact short
		{[]int{1, 5}, 0, 0},                // shorter than any entry
		{[]int{2, 5, 6}, 0, 0},             // diverges at root
		{nil, 0, 0},
	}
	for i, tc := range cases {
		h := c.Lookup(tc.key, 9)
		if tc.wantTokens == 0 {
			if h != nil {
				t.Fatalf("case %d: want miss, got %d tokens", i, h.Tokens)
			}
			continue
		}
		if h == nil {
			t.Fatalf("case %d: want hit of %d tokens, got miss", i, tc.wantTokens)
		}
		if h.Tokens != tc.wantTokens || h.Slots != tc.wantSlots {
			t.Fatalf("case %d: got (%d tokens, %d slots), want (%d, %d)",
				i, h.Tokens, h.Slots, tc.wantTokens, tc.wantSlots)
		}
		if h.Sess.Len() != tc.wantTokens {
			t.Fatalf("case %d: restored session at %d tokens, want %d", i, h.Sess.Len(), tc.wantTokens)
		}
		if h.Model[1] != 42 {
			t.Fatalf("case %d: model not restored", i)
		}
		// The hit is owned: mutating it must not corrupt the cached copy.
		h.Model[1] = -1
		if err := h.Sess.Append(2); err != nil {
			t.Fatal(err)
		}
		h.Sess.Release()
	}

	st := c.Stats()
	if st.Hits != 3 || st.Misses != 3 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 3 hits, 3 misses, 2 entries", st)
	}
}

func TestStaleEpochMissesAndDrops(t *testing.T) {
	c := New(64 << 20)
	key := []int{1, 2, 3, 4}
	if !c.Insert(key, snapFor(t, key, 7, 1)) {
		t.Fatal("insert rejected")
	}
	// A different rule epoch must miss — and purge the stale entry.
	if h := c.Lookup(key, 8); h != nil {
		t.Fatalf("stale snapshot served: %d tokens", h.Tokens)
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
	if !c.Insert(key, snapFor(t, key, 7, 1)) {
		t.Fatal("reinsert rejected")
	}
	if !c.Insert(key, snapFor(t, key, 8, 1)) {
		t.Fatal("cross-epoch replacement rejected")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("replacement duplicated: %+v", st)
	}
	if h := c.Lookup(key, 8); h == nil {
		t.Fatal("replacement not served")
	} else {
		h.Sess.Release()
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	c := New(64 << 20)
	key := []int{1, 2, 3}
	if !c.Insert(key, snapFor(t, key, 5, 1)) {
		t.Fatal("first insert rejected")
	}
	if c.NeedsInsert(key, 5) {
		t.Fatal("NeedsInsert true for cached key")
	}
	if !c.NeedsInsert(key, 6) {
		t.Fatal("NeedsInsert false for stale-epoch key")
	}
	if !c.NeedsInsert([]int{1, 2}, 5) {
		t.Fatal("NeedsInsert false for interior prefix")
	}
	if c.Insert(key, snapFor(t, key, 5, 1)) {
		t.Fatal("duplicate insert accepted")
	}
	if st := c.Stats(); st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	one := snapFor(t, []int{1, 2}, 1, 1)
	per := one.Sess.KVBytes() + 16 + 2*8 + entryOverhead
	one.Sess.Release()

	// Budget for exactly three single-page entries.
	c := New(3 * per)
	keys := [][]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}}
	for _, k := range keys[:3] {
		if !c.Insert(k, snapFor(t, k, 1, 1)) {
			t.Fatalf("insert %v rejected", k)
		}
	}
	// Touch {1,2} so {2,3} becomes least recently used.
	if h := c.Lookup(keys[0], 1); h == nil {
		t.Fatal("expected hit")
	} else {
		h.Sess.Release()
	}
	if !c.Insert(keys[3], snapFor(t, keys[3], 1, 1)) {
		t.Fatal("insert over budget rejected instead of evicting")
	}
	if h := c.Lookup(keys[1], 1); h != nil {
		t.Fatalf("LRU entry %v survived eviction", keys[1])
	}
	for _, k := range [][]int{keys[0], keys[2], keys[3]} {
		if h := c.Lookup(k, 1); h == nil {
			t.Fatalf("entry %v wrongly evicted", k)
		} else {
			h.Sess.Release()
		}
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.BytesResident != 3*per {
		t.Fatalf("stats = %+v, want 3 entries, 1 eviction, %d bytes", st, 3*per)
	}

	// A snapshot bigger than the whole budget is rejected outright.
	tiny := New(per - 1)
	if tiny.Insert(keys[0], snapFor(t, keys[0], 1, 1)) {
		t.Fatal("over-budget snapshot accepted")
	}
}

// TestConcurrentHitEvictInsert is the race-detector workout: writers insert
// snapshots into a deliberately tiny budget (forcing constant eviction)
// while readers hit, miss, extend restored sessions, and probe with a stale
// epoch. Run under -race via make verify.
func TestConcurrentHitEvictInsert(t *testing.T) {
	one := snapFor(t, []int{1, 2, 3}, 1, 1)
	per := one.Sess.KVBytes() + entryOverhead + 64
	one.Sess.Release()
	c := New(4 * per) // ~4 entries resident → every insert evicts

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
						c.Insert(k, snapFor(t, k, 1, 1))
					}
				case 1:
					if h := c.Lookup(k, 1); h != nil {
						// Drive the restored session to force COW against
						// concurrent holders of the same pages.
						if err := h.Sess.Append(5); err != nil {
							t.Error(err)
						}
						h.Sess.Release()
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

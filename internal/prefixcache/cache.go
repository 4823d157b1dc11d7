// Package prefixcache implements the cross-request prompt cache: each entry
// is keyed by one whole prompt's token sequence (BOS first) and holds a
// *paired* snapshot of the two engines that LeJIT interleaves — a frozen
// nn.Session (the transformer KV state after consuming exactly those
// tokens) and the solver's witness model at the same boundary. A repeated
// prompt resumes at its end: the KV restore skips the transformer forward
// passes for the prompt, and the witness model re-arms the interval
// oracle's fast path and stands in for the prompt feasibility check.
//
// Lookup is an exact match: a request's prompt either is a cached key or
// misses. Snapshots are only valid against the exact rule environment they
// were captured under, so every entry carries the engine's rule-epoch
// fingerprint; Lookup drops an entry whose epoch differs when it sees it,
// so a stale snapshot can never be served. The cache is safe for concurrent
// use and bounded by a byte budget with LRU eviction. Snapshots are
// immutable and garbage-collected: a hit hands out the cached session
// itself, which its reader copies out of (nn.BatchSession.SeedLane,
// nn.Session.Clone), so eviction only drops the entry — even while a lane
// is still copying out of it. See DESIGN.md §11.
package prefixcache

import (
	"container/list"
	"encoding/binary"
	"sync"

	"repro/internal/nn"
)

// Snapshot is the paired state stored under one key. The cache keeps Sess
// and Model as given; Model is copied on every hit.
type Snapshot struct {
	// Sess is the frozen transformer session (nn.BatchSession.CloneLane): it
	// has consumed exactly the key's tokens and is never advanced again.
	Sess *nn.Session
	// Model is the solver's witness model at the boundary — a satisfying
	// assignment for the rule set plus every value pinned by the key. Nil
	// when the inserter had no witness; a nil model still warm-starts the
	// transformer, just not the oracle. Indexed by smt.Var.
	Model []int64
	// RuleEpoch fingerprints the rule environment (rules, schema, slots,
	// decode mode, model identity) the snapshot was captured under.
	RuleEpoch uint64
	// Slots is how many grammar slots the key covers (separators consumed).
	Slots int
}

// Hit is a warm-start handed to one request. Sess is the cached snapshot
// itself, shared with every other hit on the entry: it is read-only, and the
// caller copies it out (SeedLane, or Clone to continue it) rather than
// advancing it. Model is a private copy the caller may mutate.
type Hit struct {
	Sess  *nn.Session
	Model []int64
	Slots int
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits          uint64 // lookups that found an epoch-current entry
	Misses        uint64 // lookups that did not
	Evictions     uint64 // entries dropped: LRU capacity, stale epoch, or replacement
	Inserts       uint64 // snapshots accepted
	BytesResident int64  // bytes pinned by live snapshots
	Entries       int
}

// entry is a stored snapshot with its encoded key and byte charge.
type entry struct {
	key   string
	snap  *Snapshot
	bytes int64
}

// Cache is a byte-bounded exact-match prompt cache, safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	byKey    map[string]*list.Element // Value is *entry
	lru      list.List                // front = most recently used
	buf      []byte                   // encoded lookup key, reused under mu

	hits, misses, evictions, inserts uint64
}

// entryOverhead approximates per-entry bookkeeping bytes beyond the KV
// floats: map slot, list element, key string, headers.
const entryOverhead = 256

// New creates a cache bounded to maxBytes of resident snapshot state.
func New(maxBytes int64) *Cache {
	return &Cache{maxBytes: maxBytes, byKey: map[string]*list.Element{}}
}

// find returns the element stored under key, or nil. Each token is a
// varint, which is prefix-free, so distinct sequences never share an
// encoding. Indexing the map with string(c.buf) directly does not allocate.
// Caller holds c.mu.
func (c *Cache) find(key []int) *list.Element {
	c.buf = c.buf[:0]
	for _, t := range key {
		c.buf = binary.AppendVarint(c.buf, int64(t))
	}
	return c.byKey[string(c.buf)]
}

// Lookup returns the snapshot stored under exactly key, as a Hit, when its
// rule epoch matches, or nil. An entry from another epoch is stale: it is
// dropped on sight (counted as an eviction) and never served.
func (c *Cache) Lookup(key []int, epoch uint64) *Hit {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.find(key)
	if el != nil && el.Value.(*entry).snap.RuleEpoch != epoch {
		c.remove(el)
		el = nil
	}
	if el == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(el)
	snap := el.Value.(*entry).snap
	h := &Hit{Sess: snap.Sess, Slots: snap.Slots}
	if snap.Model != nil {
		h.Model = append([]int64(nil), snap.Model...)
	}
	return h
}

// NeedsInsert reports whether Insert(key, …) at this epoch would store a new
// snapshot — false when an epoch-current entry already sits at key. Capture
// sites use it to skip the lane copy for an already-cached prompt.
func (c *Cache) NeedsInsert(key []int, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.find(key)
	return el == nil || el.Value.(*entry).snap.RuleEpoch != epoch
}

// Insert stores snap at key, charging it snap.Sess.KVBytes() plus its
// model, key and bookkeeping. It returns false when the snapshot is a
// duplicate of an epoch-current entry or is larger than the whole budget.
// A same-key entry from another epoch is replaced; least-recently-used
// entries are evicted until the new total fits.
func (c *Cache) Insert(key []int, snap *Snapshot) bool {
	bytes := snap.Sess.KVBytes() + int64(len(snap.Model))*8 + int64(len(key))*8 + entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes > c.maxBytes {
		return false
	}
	if el := c.find(key); el != nil {
		if el.Value.(*entry).snap.RuleEpoch == snap.RuleEpoch {
			c.lru.MoveToFront(el)
			return false
		}
		c.remove(el)
	}
	e := &entry{key: string(c.buf), snap: snap, bytes: bytes}
	c.byKey[e.key] = c.lru.PushFront(e)
	c.bytes += bytes
	c.inserts++
	// The new entry fits the budget alone, so this never reaches it.
	for c.bytes > c.maxBytes {
		c.remove(c.lru.Back())
	}
	return true
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Inserts: c.inserts, BytesResident: c.bytes, Entries: len(c.byKey),
	}
}

// remove drops el's entry, counted as an eviction. Caller holds c.mu.
func (c *Cache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*entry)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
	c.evictions++
}

// Package prefixcache implements the cross-request radix prefix cache:
// decoded token sequences are the keys of a compressed radix tree whose
// nodes hold *paired* snapshots of the two engines that LeJIT interleaves —
// a frozen nn.Session (the transformer KV state after consuming exactly
// that token prefix) and the solver's witness model at the same boundary.
// A warm request longest-prefix-matches its prompt and resumes mid-record:
// the KV restore skips the transformer forward passes for the shared
// prefix, and the witness model re-arms the interval oracle's fast path
// (and, on a full-prompt hit, stands in for the prompt feasibility check).
//
// Snapshots are only valid against the exact rule environment they were
// captured under. Every entry therefore carries the engine's rule-epoch
// fingerprint; Lookup skips — and drops — entries whose epoch differs, so a
// stale snapshot can never be served. The cache is safe for concurrent use
// and bounded by a byte budget with LRU eviction; session memory is
// refcounted at the KV-page level (see nn), so a hit shares pages with the
// cached snapshot instead of copying them. See DESIGN.md §11.
package prefixcache

import (
	"sync"

	"repro/internal/nn"
)

// Snapshot is the paired mid-record state stored at one radix node. The
// cache takes ownership of Sess on Insert (it is released on eviction);
// Model is retained as given and copied on every hit.
type Snapshot struct {
	// Sess is the frozen transformer session: it has consumed exactly the
	// key's tokens and must never be advanced again.
	Sess *nn.Session
	// Model is the solver's witness model at the boundary — a satisfying
	// assignment for the rule set plus every value pinned by the key. Nil
	// when the engine had no epoch-current model at capture time; a nil
	// model still warm-starts the transformer, just not the oracle. Indexed
	// by smt.Var.
	Model []int64
	// RuleEpoch fingerprints the rule environment (rules, schema, slots,
	// decode mode, model identity) the snapshot was captured under.
	RuleEpoch uint64
	// Slots is how many grammar slots the key covers (separators consumed).
	Slots int
}

// Hit is an owned warm-start handed to one request: Sess is a private clone
// (page-sharing, copy-on-write) the caller must drive or Release, and Model
// is a private copy the caller may mutate.
type Hit struct {
	Sess   *nn.Session
	Model  []int64
	Tokens int // key prefix length restored (BOS included)
	Slots  int
}

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits          uint64 // lookups that returned a warm prefix
	Misses        uint64 // lookups with no usable prefix
	Evictions     uint64 // entries dropped: LRU capacity, stale epoch, or replacement
	Inserts       uint64 // snapshots accepted
	BytesResident int64  // bytes pinned by live snapshots
	Entries       int
}

// node is one radix-tree node; label is the edge from its parent
// (compressed: one node per divergence point, not per token).
type node struct {
	label    []int
	parent   *node
	children map[int]*node
	ent      *entry
}

// entry is a stored snapshot plus its LRU links and byte accounting.
type entry struct {
	snap       *Snapshot
	keyLen     int
	bytes      int64
	node       *node
	prev, next *entry // LRU list, head = most recent
}

// Cache is a byte-bounded radix prefix cache, safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	root     *node
	maxBytes int64
	bytes    int64
	entries  int
	// LRU list with sentinel-free head/tail.
	head, tail *entry

	hits, misses, evictions, inserts uint64
}

// entryOverhead approximates per-entry bookkeeping bytes beyond the KV
// pages: tree node, labels, LRU links, map headers.
const entryOverhead = 256

// New creates a cache bounded to maxBytes of resident snapshot state.
func New(maxBytes int64) *Cache {
	return &Cache{root: &node{}, maxBytes: maxBytes}
}

// Lookup returns the deepest cached snapshot whose key is a prefix of key
// and whose rule epoch matches, as an owned Hit, or nil. Entries found on
// the path with a different epoch are stale — they are dropped on sight
// (counted as evictions) and can never be served.
func (c *Cache) Lookup(key []int, epoch uint64) *Hit {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	n := c.root
	depth := 0
	for {
		if n.ent != nil {
			if n.ent.snap.RuleEpoch == epoch {
				best = n.ent
			} else {
				c.drop(n.ent)
			}
		}
		if depth == len(key) {
			break
		}
		child, ok := n.children[key[depth]]
		if !ok || len(key)-depth < len(child.label) || !prefixEq(child.label, key[depth:]) {
			break
		}
		depth += len(child.label)
		n = child
	}
	// A one-token prefix (the BOS a cold session gets for free) is noise.
	if best == nil || best.keyLen < 2 {
		c.misses++
		return nil
	}
	c.hits++
	c.touch(best)
	h := &Hit{
		Sess:   best.snap.Sess.Clone(),
		Tokens: best.keyLen,
		Slots:  best.snap.Slots,
	}
	if m := best.snap.Model; m != nil {
		h.Model = append([]int64(nil), m...)
	}
	return h
}

// NeedsInsert reports whether Insert(key, …) at this epoch would store a new
// snapshot — false when an epoch-current entry already sits at exactly key.
// Capture sites use it to skip the session clone for already-cached
// boundaries.
func (c *Cache) NeedsInsert(key []int, epoch uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, exact := c.find(key)
	return !(exact && n.ent != nil && n.ent.snap.RuleEpoch == epoch)
}

// Insert stores snap at key, taking ownership of snap.Sess. It returns
// false — releasing the session — when the snapshot is a duplicate of an
// epoch-current entry or is larger than the whole budget. A same-key entry
// from another epoch is replaced; least-recently-used entries are evicted
// until the new total fits.
func (c *Cache) Insert(key []int, snap *Snapshot) bool {
	bytes := snap.Sess.KVBytes() + int64(len(snap.Model))*8 + int64(len(key))*8 + entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(key) < 2 || bytes > c.maxBytes {
		snap.Sess.Release()
		return false
	}
	n := c.insertNode(key)
	if n.ent != nil {
		if n.ent.snap.RuleEpoch == snap.RuleEpoch {
			c.touch(n.ent)
			snap.Sess.Release()
			return false
		}
		c.detach(n.ent)
	}
	e := &entry{snap: snap, keyLen: len(key), bytes: bytes, node: n}
	n.ent = e
	c.pushFront(e)
	c.bytes += bytes
	c.entries++
	c.inserts++
	for c.bytes > c.maxBytes && c.tail != nil && c.tail != e {
		c.drop(c.tail)
	}
	return true
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Inserts: c.inserts, BytesResident: c.bytes, Entries: c.entries,
	}
}

// find walks key and returns the deepest node on its path plus whether that
// node sits at exactly key. Caller holds c.mu.
func (c *Cache) find(key []int) (*node, bool) {
	n := c.root
	depth := 0
	for depth < len(key) {
		child, ok := n.children[key[depth]]
		if !ok || len(key)-depth < len(child.label) || !prefixEq(child.label, key[depth:]) {
			return n, false
		}
		depth += len(child.label)
		n = child
	}
	return n, true
}

// insertNode returns the node at exactly key, creating and splitting edges
// as needed. Caller holds c.mu.
func (c *Cache) insertNode(key []int) *node {
	n := c.root
	i := 0
	for i < len(key) {
		child, ok := n.children[key[i]]
		if !ok {
			leaf := &node{label: append([]int(nil), key[i:]...), parent: n}
			if n.children == nil {
				n.children = map[int]*node{}
			}
			n.children[key[i]] = leaf
			return leaf
		}
		common := 0
		rest := key[i:]
		for common < len(child.label) && common < len(rest) && child.label[common] == rest[common] {
			common++
		}
		if common == len(child.label) {
			n = child
			i += common
			continue
		}
		// Split child's edge at the divergence point.
		mid := &node{label: append([]int(nil), child.label[:common]...), parent: n}
		mid.children = map[int]*node{child.label[common]: child}
		child.label = append([]int(nil), child.label[common:]...)
		child.parent = mid
		n.children[key[i]] = mid
		if common == len(rest) {
			return mid
		}
		leaf := &node{label: append([]int(nil), rest[common:]...), parent: mid}
		mid.children[rest[common]] = leaf
		return leaf
	}
	return n
}

// detach removes e from the cache bookkeeping (LRU, bytes, session refs)
// but leaves its tree node in place — used when the node is about to be
// reused by a replacement entry. Counted as an eviction. Caller holds c.mu.
func (c *Cache) detach(e *entry) {
	c.unlink(e)
	c.bytes -= e.bytes
	c.entries--
	c.evictions++
	e.node.ent = nil
	e.snap.Sess.Release()
}

// drop is detach plus pruning of now-empty tree nodes, so the tree doesn't
// accrete dead branches. Caller holds c.mu.
func (c *Cache) drop(e *entry) {
	c.detach(e)
	n := e.node
	for n != c.root && n.ent == nil && len(n.children) == 0 {
		p := n.parent
		delete(p.children, n.label[0])
		n = p
	}
}

func prefixEq(label, key []int) bool {
	for i, t := range label {
		if key[i] != t {
			return false
		}
	}
	return true
}

// LRU primitives. Caller holds c.mu.

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) touch(e *entry) {
	c.unlink(e)
	c.pushFront(e)
}

package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"sync"

	"rsonpath"
)

// docCache is the daemon's classify-once-query-many layer: an LRU of
// rsonpath.IndexedDocument keyed by the SHA-256 of the document bytes. A
// document is only counted until its promoteSightings-th sighting (building
// costs one classification sweep plus ~78% of the document in mask planes
// and their bracket-excess summary, which BENCH_swar.json shows repays
// itself within a few queries — counting first keeps one-shot documents
// from churning the cache); then the index is built and every later
// request with the same bytes serves its classification from the planes.
//
// The cache is bounded two ways: by entry count (promoted and counting
// entries alike — the map and list nodes are the cost being bounded) and by
// total resident *bytes* of promoted indexes (document copy + mask planes +
// excess summary, the IndexedDocument.Footprint). Byte-bounding is what
// actually protects the process: a 128-entry cache of 100 MB documents is
// 14 GB resident, which no entry count expresses. Eviction is LRU under
// both bounds.
//
// Content hashing makes the cache safe by construction: a stale entry is
// impossible because a changed document is a different key. Collisions are
// cryptographically negligible.
type docCache struct {
	mu       sync.Mutex
	capacity int
	bytesCap int64
	entries  map[[sha256.Size]byte]*list.Element // value: *docEntry
	lru      *list.List
	resident int64 // summed footprint of promoted entries
	builds   int64 // indexes built (for metrics)
	evicted  int64 // entries evicted (for metrics)
}

// docEntry is one sighted document: a counter until promotion, an index
// afterwards. footprint is nonzero exactly when idx is.
type docEntry struct {
	key       [sha256.Size]byte
	seen      int
	idx       *rsonpath.IndexedDocument
	footprint int64
}

// newDocCache returns a cache holding at most capacity entries and
// bytesCap resident index bytes. capacity <= 0 disables the cache: lookup
// always reports a miss and stores nothing. bytesCap <= 0 means the byte
// bound is off (entry count alone bounds the cache).
func newDocCache(capacity int, bytesCap int64) *docCache {
	return &docCache{
		capacity: capacity,
		bytesCap: bytesCap,
		entries:  make(map[[sha256.Size]byte]*list.Element),
		lru:      list.New(),
	}
}

func (c *docCache) enabled() bool { return c != nil && c.capacity > 0 }

// lookup returns the indexed form of doc when the cache holds one, counting
// the sighting and building the index at the promotion threshold otherwise.
// built reports that this call performed the build (the caller's metrics
// distinguish a hit from the build that enables future hits). The build
// copies doc, so the caller's buffer stays request-scoped; a document the
// screens reject (malformed) is remembered as never-promotable rather than
// re-screened each time.
func (c *docCache) lookup(doc []byte) (idx *rsonpath.IndexedDocument, built bool) {
	if !c.enabled() {
		return nil, false
	}
	key := sha256.Sum256(doc)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		e := &docEntry{key: key, seen: 1}
		c.entries[key] = c.lru.PushFront(e)
		c.maybePromote(e, doc)
		c.evictOver()
		return e.idx, e.idx != nil
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*docEntry)
	if e.idx != nil {
		return e.idx, false
	}
	e.seen++
	c.maybePromote(e, doc)
	c.evictOver()
	return e.idx, e.idx != nil
}

// promoteSightings is the sighting at which a document's index is built: a
// document seen twice is predicted to be seen again (Zipfian request
// mixes), often enough to repay the build.
const promoteSightings = 2

// maybePromote builds the index once promotion is decided. A failed build
// (input the index screens reject) leaves the entry as a counter pinned
// unpromotable, so the malformed document is not re-screened on every
// request; the request itself proceeds un-indexed and gets the engine's own
// (better-positioned) malformed error.
func (c *docCache) maybePromote(e *docEntry, doc []byte) {
	if e.idx != nil || e.seen < promoteSightings {
		return
	}
	idx, err := rsonpath.Index(bytes.Clone(doc))
	if err != nil {
		e.seen = -1 << 30
		return
	}
	e.idx = idx
	e.footprint = int64(idx.Footprint())
	c.resident += e.footprint
	c.builds++
}

// evictOver drops LRU entries until both bounds hold (lock held). An index
// whose footprint alone exceeds the byte budget ends up evicted the moment
// the next entry arrives — the budget is a hard bound on resident bytes,
// not a per-entry suggestion.
func (c *docCache) evictOver() {
	for c.lru.Len() > c.capacity || (c.bytesCap > 0 && c.resident > c.bytesCap) {
		oldest := c.lru.Back()
		if oldest == nil {
			return
		}
		e := oldest.Value.(*docEntry)
		c.lru.Remove(oldest)
		delete(c.entries, e.key)
		c.resident -= e.footprint
		c.evicted++
	}
}

// purge empties the cache (SIGHUP flush), keeping the lifetime build and
// eviction counters. Resident bytes drop to zero; promoted indexes are
// rebuilt on re-promotion like any cold document.
func (c *docCache) purge() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[[sha256.Size]byte]*list.Element)
	c.lru.Init()
	c.resident = 0
}

// len returns the current entry count.
func (c *docCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// stats returns the resident byte total and lifetime build/eviction
// counters for /metrics.
func (c *docCache) stats() (resident int64, builds, evicted int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident, c.builds, c.evicted
}

package rsonpath

import (
	"container/list"
	"strings"
	"sync"
)

// This file is the compiled-query cache (DESIGN.md §12): a concurrency-safe
// LRU of compiled Query and QuerySet objects keyed by query text plus the
// resolved compile options. Compile re-parses and re-determinizes on every
// call; for a serving process answering the same handful of queries over
// and over, the cache turns that per-request cost into a map lookup. The
// daemon (internal/server) keeps one QueryCache for its whole lifetime;
// library callers with a stable query population can do the same.

// DefaultQueryCacheSize is the capacity used when NewQueryCache is given a
// non-positive one: enough for any realistic hot query population, small
// enough that even worst-case automata stay in the megabytes.
const DefaultQueryCacheSize = 256

// CacheStats is a point-in-time snapshot of a QueryCache's counters.
type CacheStats struct {
	// Hits counts Get/GetSet calls answered from the cache (including calls
	// that waited for a concurrent compile of the same key).
	Hits int64
	// Misses counts calls that had to compile.
	Misses int64
	// Evictions counts entries discarded to make room.
	Evictions int64
	// Len is the current number of cached entries; Capacity the maximum.
	Len, Capacity int
}

// cacheKey identifies one compiled artifact: the query text (for sets, the
// member texts joined with an unescapable separator), whether it is a set,
// and every resolved option that changes what Compile produces. Options
// are keyed by their resolved values, so Compile(q) and
// Compile(q, WithEngine(EngineRsonpath)) share one entry.
type cacheKey struct {
	query     string
	set       bool
	kind      EngineKind
	semantics Semantics
	window    int
	limits    limits
	sup       supervision
}

// keyFor resolves opts exactly the way Compile does and folds them into a
// comparable key.
func keyFor(query string, set bool, opts []Option) cacheKey {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return cacheKey{
		query:     query,
		set:       set,
		kind:      c.kind,
		semantics: c.semantics,
		window:    c.window,
		limits:    c.resolveLimits(),
		sup:       c.resolveSupervision(),
	}
}

// setKeySep joins member queries of a set key. A query containing a newline
// or NUL fails to parse, so the pair cannot occur inside a legal query text
// and distinct query lists never collide.
const setKeySep = "\x00\n"

// cacheEntry is one cached compile, possibly still in flight: ready is
// closed once val/err are final, so concurrent requests for the same key
// wait for one compile instead of racing N of them (the singleflight
// pattern). val is *Query or *QuerySet depending on the key.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	val   any
	err   error
}

// QueryCache is a concurrency-safe LRU of compiled queries. The zero value
// is not usable; create one with NewQueryCache. All methods may be called
// from any number of goroutines.
//
// Cached *Query and *QuerySet values are shared between callers — safe,
// because compiled queries are immutable and concurrent-use-safe by
// contract. Compile errors are returned but never cached: a failing query
// re-compiles (and re-fails, cheaply, in the parser) on every Get.
type QueryCache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[cacheKey]*list.Element // value: *cacheEntry
	lru       *list.List                 // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

// NewQueryCache returns an empty cache holding at most capacity compiled
// artifacts (queries and sets count alike); capacity <= 0 selects
// DefaultQueryCacheSize.
func NewQueryCache(capacity int) *QueryCache {
	if capacity <= 0 {
		capacity = DefaultQueryCacheSize
	}
	return &QueryCache{
		capacity: capacity,
		entries:  make(map[cacheKey]*list.Element, capacity),
		lru:      list.New(),
	}
}

// lookup returns the settled-or-in-flight entry for key, creating and
// claiming it when absent. The boolean reports whether the caller must
// perform the compile (it was the first requester).
func (c *QueryCache) lookup(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry), false
	}
	c.misses++
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	if c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	return e, true
}

// drop removes a failed entry so the error is not served from cache. The
// entry may already have been evicted; only remove it if it is still the
// one in the map.
func (c *QueryCache) drop(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok && el.Value.(*cacheEntry) == e {
		c.lru.Remove(el)
		delete(c.entries, e.key)
	}
}

// get is the shared core of Get and GetSet.
func (c *QueryCache) get(key cacheKey, compile func() (any, error)) (any, error) {
	e, mine := c.lookup(key)
	if mine {
		e.val, e.err = compile()
		if e.err != nil {
			c.drop(e)
		}
		close(e.ready)
	} else {
		<-e.ready
	}
	return e.val, e.err
}

// Get returns the compiled form of query under opts, compiling at most once
// per (query, options) key no matter how many goroutines ask concurrently.
// The returned *Query is shared; it is immutable and safe for concurrent
// use.
func (c *QueryCache) Get(query string, opts ...Option) (*Query, error) {
	v, err := c.get(keyFor(query, false, opts), func() (any, error) {
		q, err := Compile(query, opts...)
		if err != nil {
			return nil, err
		}
		return q, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Query), nil
}

// GetSet is Get for QuerySet: the key is the ordered list of member query
// texts plus the options, so the same queries in a different order compile
// (and cache) separately — member order is part of CompileSet's contract.
func (c *QueryCache) GetSet(queries []string, opts ...Option) (*QuerySet, error) {
	v, err := c.get(keyFor(strings.Join(queries, setKeySep), true, opts), func() (any, error) {
		s, err := CompileSet(queries, opts...)
		if err != nil {
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*QuerySet), nil
}

// Stats returns a snapshot of the cache's counters.
func (c *QueryCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.lru.Len(),
		Capacity:  c.capacity,
	}
}

// Len returns the current number of cached entries.
func (c *QueryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Purge empties the cache, keeping the hit/miss/eviction counters.
func (c *QueryCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]*list.Element, c.capacity)
	c.lru.Init()
}

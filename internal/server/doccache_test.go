package server

import (
	"fmt"
	"strings"
	"testing"

	"rsonpath"
)

// promote sights doc twice — the planner's promotion point — and returns
// what the second lookup served.
func promote(c *docCache, doc []byte) (*rsonpath.IndexedDocument, bool) {
	c.lookup(doc)
	return c.lookup(doc)
}

// TestDocCachePromotion verifies the planner's sighting threshold: no index
// on the first lookup, a build on the second, hits after.
func TestDocCachePromotion(t *testing.T) {
	c := newDocCache(4, 0)
	doc := []byte(`{"a": 1}`)
	if idx, built := c.lookup(doc); idx != nil || built {
		t.Fatalf("first sighting: premature index (built=%v)", built)
	}
	idx, built := c.lookup(doc)
	if idx == nil || !built {
		t.Fatalf("second sighting: idx=%v built=%v, want build", idx, built)
	}
	idx2, built := c.lookup(doc)
	if idx2 != idx || built {
		t.Fatalf("third sighting: want hit of the same index (built=%v)", built)
	}
}

// TestDocCacheContentKeyed verifies different bytes never share an entry.
func TestDocCacheContentKeyed(t *testing.T) {
	c := newDocCache(4, 0)
	a, _ := promote(c, []byte(`{"a": 1}`))
	b, _ := promote(c, []byte(`{"a": 2}`))
	if a == nil || b == nil || a == b {
		t.Fatalf("content collision: %v %v", a, b)
	}
}

// TestDocCacheEviction fills past capacity and verifies LRU discard.
func TestDocCacheEviction(t *testing.T) {
	c := newDocCache(2, 0)
	docs := [][]byte{[]byte(`{"a": 1}`), []byte(`{"a": 2}`), []byte(`{"a": 3}`)}
	for _, d := range docs {
		if idx, _ := promote(c, d); idx == nil {
			t.Fatalf("second sighting did not build for %s", d)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// The first document was evicted: looking it up again rebuilds.
	if _, built := promote(c, docs[0]); !built {
		t.Fatalf("evicted document served without a rebuild")
	}
}

// TestDocCacheByteBound verifies the resident-bytes bound: a cache whose
// entry count would allow many indexes still evicts LRU once the summed
// footprints exceed the byte budget, and the resident gauge tracks what is
// actually held.
func TestDocCacheByteBound(t *testing.T) {
	// Each doc is ~64 bytes, so each index footprint is ~64 + planes.
	// Budget two footprints' worth and insert three documents.
	doc := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"key%d": %q}`, i, make([]byte, 40)))
	}
	probe := newDocCache(8, 0)
	idx, _ := promote(probe, doc(0))
	if idx == nil {
		t.Fatal("probe build failed")
	}
	foot := int64(idx.Footprint())

	c := newDocCache(8, 2*foot)
	for i := 0; i < 3; i++ {
		if got, _ := promote(c, doc(i)); got == nil {
			t.Fatalf("doc %d did not build", i)
		}
	}
	resident, builds, evicted := c.stats()
	if resident > 2*foot {
		t.Fatalf("resident %d exceeds budget %d", resident, 2*foot)
	}
	if builds != 3 || evicted < 1 {
		t.Fatalf("builds=%d evicted=%d, want 3 builds and >=1 eviction", builds, evicted)
	}
	// The evicted (oldest) document rebuilds; the newest is still a hit.
	if _, built := promote(c, doc(0)); !built {
		t.Fatal("byte-evicted document served without a rebuild")
	}
	if _, built := c.lookup(doc(2)); built {
		t.Fatal("newest document was evicted by the byte bound prematurely")
	}
}

// TestDocCacheChargesSummary pins what a promoted index costs the byte
// budget: the document, six plane words (48 bytes) per 64-byte block, and
// the bracket-excess summary — 2 bytes per block and 8 per superblock of
// 64 blocks, in whole words.
func TestDocCacheChargesSummary(t *testing.T) {
	doc := []byte(`[` + strings.Repeat(`{"a": [1, 2, 3]}, `, 6000) + `0]`)
	c := newDocCache(4, 0)
	idx, _ := promote(c, doc)
	if idx == nil {
		t.Fatal("second sighting did not build")
	}
	n := (len(doc) + 63) / 64
	want := len(doc) + 48*n + 8*((n+3)/4+(n+63)/64)
	resident, _, _ := c.stats()
	if idx.Footprint() != want || resident != int64(want) {
		t.Fatalf("footprint %d, resident %d, want %d (%d bytes, %d blocks)",
			idx.Footprint(), resident, want, len(doc), n)
	}
}

// TestDocCacheMalformedNotRetried verifies a document the index screens
// reject is remembered and not re-screened, and lookups keep reporting a
// miss so requests run unindexed.
func TestDocCacheMalformedNotRetried(t *testing.T) {
	c := newDocCache(4, 0)
	bad := []byte(`{"a": [1, 2}`) // unbalanced: ] missing
	for i := 0; i < 3; i++ {
		if idx, built := c.lookup(bad); idx != nil || built {
			t.Fatalf("lookup %d: malformed document produced an index", i)
		}
	}
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1 pinned counter entry", c.len())
	}
}

// TestDocCacheDisabled verifies capacity 0 stores nothing.
func TestDocCacheDisabled(t *testing.T) {
	c := newDocCache(0, 0)
	for i := 0; i < 3; i++ {
		if idx, built := c.lookup([]byte(`{"a": 1}`)); idx != nil || built {
			t.Fatalf("disabled cache built an index")
		}
	}
	if c.len() != 0 {
		t.Fatalf("disabled cache retained entries")
	}
}

// TestDocCacheConcurrent exercises the lock under -race.
func TestDocCacheConcurrent(t *testing.T) {
	c := newDocCache(8, 1<<20)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				doc := []byte(fmt.Sprintf(`{"k": %d}`, i%4))
				c.lookup(doc)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

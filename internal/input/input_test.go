package input

import (
	"bytes"
	"errors"
	"io"
	"runtime/debug"
	"testing"
)

// chunkReader delivers at most n bytes per Read, forcing many refills.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.n
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func mkDoc(n int) []byte {
	doc := make([]byte, n)
	for i := range doc {
		doc[i] = byte('a' + i%26)
	}
	return doc
}

func TestBytesInputBlocks(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 200} {
		doc := mkDoc(n)
		in := NewBytes(doc)
		if in.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, in.Len())
		}
		for idx := 0; idx*BlockSize < n+2*BlockSize; idx++ {
			b, got := in.Block(idx)
			want := n - idx*BlockSize
			if want > BlockSize {
				want = BlockSize
			}
			if want < 0 {
				want = 0
			}
			if got != want {
				t.Fatalf("n=%d block %d: n=%d want %d", n, idx, got, want)
			}
			for i := 0; i < BlockSize; i++ {
				wb := Pad
				if off := idx*BlockSize + i; off < n {
					wb = doc[off]
				}
				if b[i] != wb {
					t.Fatalf("n=%d block %d byte %d: %q want %q", n, idx, i, b[i], wb)
				}
			}
		}
	}
}

func TestBufferedMatchesBytes(t *testing.T) {
	doc := mkDoc(1000)
	for _, window := range []int{1, 64, 128, 1000} {
		for _, chunk := range []int{1, 7, 64, 4096} {
			in := NewBuffered(&chunkReader{data: doc, n: chunk}, window)
			ref := NewBytes(doc)
			nblocks := (len(doc) + BlockSize - 1) / BlockSize
			for idx := 0; idx <= nblocks; idx++ {
				wb, wn := ref.Block(idx)
				want := *wb
				gb, gn := in.Block(idx)
				if gn != wn || *gb != want {
					t.Fatalf("window=%d chunk=%d block %d mismatch (n=%d want %d)", window, chunk, idx, gn, wn)
				}
			}
			if in.Len() != len(doc) {
				t.Fatalf("window=%d: Len=%d after full scan", window, in.Len())
			}
		}
	}
}

func TestBufferedDoubleBufferedBlocks(t *testing.T) {
	doc := mkDoc(300)
	in := NewBuffered(bytes.NewReader(doc), 64)
	b0, _ := in.Block(0)
	keep := *b0
	// Probing the next block must not invalidate the previous one.
	if _, n := in.Block(1); n != BlockSize {
		t.Fatalf("block 1 short: %d", n)
	}
	if *b0 != keep {
		t.Fatal("block 0 invalidated by probing block 1")
	}
}

func TestBufferedWindowViolation(t *testing.T) {
	doc := mkDoc(100 * BlockSize)
	in := NewBuffered(&chunkReader{data: doc, n: 512}, 64)
	// Walk far forward so the window slides past the origin.
	if s := in.Bytes(90*BlockSize, 90*BlockSize+8); !bytes.Equal(s, doc[90*BlockSize:90*BlockSize+8]) {
		t.Fatalf("forward read wrong: %q", s)
	}
	if in.Retained() == 0 {
		t.Fatal("window never slid")
	}
	err := Guard(func() error {
		in.Bytes(0, 8)
		return nil
	})
	if !errors.Is(err, ErrWindow) {
		t.Fatalf("want ErrWindow, got %v", err)
	}
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("want *Error, got %T", err)
	}
}

func TestBufferedReadError(t *testing.T) {
	boom := errors.New("boom")
	in := NewBuffered(io.MultiReader(bytes.NewReader(mkDoc(10)), &errReader{boom}), 64)
	err := Guard(func() error {
		in.Bytes(0, 200)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want read error, got %v", err)
	}
}

type errReader struct{ err error }

func (r *errReader) Read([]byte) (int, error) { return 0, r.err }

func TestGuardPassesThroughForeignPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "other" {
			t.Fatalf("foreign panic swallowed: %v", r)
		}
	}()
	_ = Guard(func() error { panic("other") })
}

// TestBufferedRelease proves the window-buffer pool round-trip: a released
// buffer is handed back, with the same backing array, to the next
// BufferedInput of the same geometry — and never to one of a different
// geometry, where reuse would silently change the window-violation contract.
func TestBufferedRelease(t *testing.T) {
	if raceEnabled {
		// The race detector's sync.Pool instrumentation drops a random
		// fraction of Puts, so backing-array identity cannot be asserted.
		t.Skip("pool identity is not deterministic under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would drain the pool

	doc := mkDoc(4 * BlockSize)
	in := NewBuffered(bytes.NewReader(doc), BlockSize)
	if _, ok := in.ByteAt(0); !ok {
		t.Fatal("ByteAt(0) failed")
	}
	arr := &in.buf[:1][0]
	geom := cap(in.buf)
	in.Release()
	if in.buf != nil {
		t.Fatal("Release left the buffer attached")
	}
	in.Release() // double release must be a no-op, not a double Put

	// Different geometry: must NOT reuse the pooled buffer.
	other := NewBuffered(bytes.NewReader(doc), 4*BlockSize)
	if cap(other.buf) == geom {
		t.Fatalf("geometry mismatch: cap=%d", cap(other.buf))
	}
	if _, ok := other.ByteAt(0); !ok {
		t.Fatal("ByteAt(0) failed")
	}
	if &other.buf[:1][0] == arr {
		t.Fatal("pooled buffer reused at a different geometry")
	}

	// Same geometry: the pooled buffer should come back. The pool entry may
	// have been consumed by the different-geometry probe above (Get-and-
	// discard), so re-seed it.
	seed := NewBuffered(bytes.NewReader(doc), BlockSize)
	seedArr := func() *byte {
		if _, ok := seed.ByteAt(0); !ok {
			t.Fatal("ByteAt(0) failed")
		}
		return &seed.buf[:1][0]
	}()
	seed.Release()
	reused := NewBuffered(bytes.NewReader(doc), BlockSize)
	if _, ok := reused.ByteAt(0); !ok {
		t.Fatal("ByteAt(0) failed")
	}
	if &reused.buf[:1][0] != seedArr {
		t.Fatal("same-geometry BufferedInput did not reuse the released buffer")
	}
	// The recycled window must behave like a fresh one.
	got := reused.Bytes(0, 4*BlockSize)
	if !bytes.Equal(got, doc[:len(got)]) {
		t.Fatalf("recycled buffer served wrong bytes: %q", got[:8])
	}
}

package simd

import (
	"math/rand"
	"testing"
	"unsafe"
)

// withBackend runs f with the named backend forced, restoring the previous
// one afterwards. Skips when the backend is unavailable on this host.
func withBackend(t *testing.T, name string, f func(t *testing.T)) {
	t.Helper()
	prev := Backend()
	if err := SetBackend(name); err != nil {
		t.Skipf("backend %s: %v", name, err)
	}
	defer func() {
		if err := SetBackend(prev); err != nil {
			t.Fatalf("restoring backend %s: %v", prev, err)
		}
	}()
	f(t)
}

func TestBackendsAlwaysIncludeSWAR(t *testing.T) {
	names := Backends()
	if len(names) == 0 || names[0] != "swar" {
		t.Fatalf("Backends() = %v, want swar first as the universal fallback", names)
	}
	if Backend() == "" {
		t.Fatal("no active backend")
	}
}

func TestSetBackendRoundTrip(t *testing.T) {
	prev := Backend()
	defer func() { _ = SetBackend(prev) }()
	for _, name := range Backends() {
		if err := SetBackend(name); err != nil {
			t.Fatalf("SetBackend(%q): %v", name, err)
		}
		if got := Backend(); got != name {
			t.Fatalf("after SetBackend(%q), Backend() = %q", name, got)
		}
	}
	if err := SetBackend("avx512-unobtainium"); err == nil {
		t.Fatal("SetBackend accepted an unknown backend")
	}
	if got := Backend(); got != Backends()[len(Backends())-1] {
		t.Fatalf("failed SetBackend changed the active backend to %q", got)
	}
}

func TestAlignedWords(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 100, 1023} {
		s := AlignedWords(RoundWords(n))
		if n == 0 {
			if s != nil {
				t.Fatalf("AlignedWords(0) = %v, want nil", s)
			}
			continue
		}
		if got, want := len(s), RoundWords(n); got != want {
			t.Fatalf("n=%d: len = %d, want lane-rounded %d", n, got, want)
		}
		if len(s)%VecWords != 0 {
			t.Fatalf("n=%d: length %d not a whole number of lanes", n, len(s))
		}
		if p := uintptr(unsafe.Pointer(&s[0])); p%VecAlign != 0 {
			t.Fatalf("n=%d: base address %#x not %d-byte aligned", n, p, VecAlign)
		}
		for i, w := range s {
			if w != 0 {
				t.Fatalf("n=%d: word %d not zeroed: %#x", n, i, w)
			}
		}
	}
}

func TestRoundWords(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 4, 3: 4, 4: 4, 5: 8, 8: 8, 9: 12} {
		if got := RoundWords(n); got != want {
			t.Fatalf("RoundWords(%d) = %d, want %d", n, got, want)
		}
	}
}

// randWords returns deterministic pseudo-random mask words.
func randWords(n int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.Uint64()
	}
	return s
}

func TestPopcountWordsAllBackends(t *testing.T) {
	for _, name := range Backends() {
		withBackend(t, name, func(t *testing.T) {
			for _, n := range []int{0, 1, 3, 4, 5, 8, 31, 64, 257} {
				p := randWords(n, int64(n)*7)
				want := 0
				for _, w := range p {
					want += Popcount(w)
				}
				if got := PopcountWords(p); got != want {
					t.Fatalf("%s n=%d: PopcountWords = %d, want %d", name, n, got, want)
				}
				// All-ones and all-zeros corners.
				for i := range p {
					p[i] = ^uint64(0)
				}
				if got := PopcountWords(p); got != 64*n {
					t.Fatalf("%s n=%d: all-ones PopcountWords = %d, want %d", name, n, got, 64*n)
				}
			}
		})
	}
}

// checkBackendMasks asserts the active backend's RawMasks and BatchRawMasks
// are bit-identical to the SWAR reference over data, including the padded
// partial tail.
func checkBackendMasks(t *testing.T, data []byte) {
	t.Helper()
	n := len(data) / BlockSize
	got := make([][]uint64, 6)
	want := make([][]uint64, 6)
	for i := range got {
		got[i] = make([]uint64, n)
		want[i] = make([]uint64, n)
	}
	if full := BatchRawMasks(data, got[0], got[1], got[2], got[3], got[4], got[5]); full != n {
		t.Fatalf("BatchRawMasks processed %d blocks, want %d", full, n)
	}
	if full := batchRawMasksSWAR(data, want[0], want[1], want[2], want[3], want[4], want[5]); full != n {
		t.Fatalf("reference sweep processed %d blocks, want %d", full, n)
	}
	for p := range got {
		for i := range got[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("%s: plane %d block %d: %#x, want %#x (swar)",
					Backend(), p, i, got[p][i], want[p][i])
			}
		}
	}
	// The per-block kernel over every block, plus the padded tail.
	for off := 0; off < len(data) || off == 0; off += BlockSize {
		var b Block
		LoadBlock(&b, data[off:], ' ')
		var g, w [6]uint64
		g[0], g[1], g[2], g[3], g[4], g[5] = RawMasks(&b)
		w[0], w[1], w[2], w[3], w[4], w[5] = rawMasksSWAR(&b)
		if g != w {
			t.Fatalf("%s: RawMasks@%d = %x, want %x (swar)", Backend(), off, g, w)
		}
		if ref := refMasks(&b); w != ref {
			t.Fatalf("swar RawMasks@%d = %x, per-block kernels %x", off, w, ref)
		}
		if len(data) == 0 {
			break
		}
	}
}

func TestBackendMaskEquivalence(t *testing.T) {
	for _, name := range Backends() {
		withBackend(t, name, func(t *testing.T) {
			for _, data := range batchTestInputs() {
				checkBackendMasks(t, data)
			}
			// Every byte value at every lane position within a block.
			all := make([]byte, 256*BlockSize)
			for i := range all {
				all[i] = byte((i + i/BlockSize) % 256)
			}
			checkBackendMasks(t, all)
		})
	}
}

// FuzzBackendEquivalence pins every compiled-in backend to the SWAR
// reference bit-for-bit on arbitrary bytes — the correctness anchor for the
// hand-written assembly, including block-boundary and partial-tail inputs.
// It covers the six-mask kernels and the pair filter's candidate masks.
func FuzzBackendEquivalence(f *testing.F) {
	for _, data := range batchTestInputs() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range Backends() {
			withBackend(t, name, func(t *testing.T) {
				checkBackendMasks(t, data)
				checkBackendPairs(t, data)
			})
		}
	})
}

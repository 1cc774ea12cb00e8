package classifier

import (
	"testing"
	"unsafe"

	"rsonpath/internal/input"
	"rsonpath/internal/simd"
)

// checkPlanesEquivalence asserts that BuildPlanes agrees with the scalar
// quote oracle and with the per-block kernels on every block of data, and
// that a cold Stream over in — the same bytes, possibly through a buffered
// window, exercising refill boundaries — serves exactly those masks as it
// classifies window after window and carries the quote state across them.
// An IndexedDocument run and a plain run could otherwise diverge.
func checkPlanesEquivalence(t *testing.T, data []byte, in input.Input, label string) {
	t.Helper()
	p := BuildPlanes(data)
	if want := (len(data) + simd.BlockSize - 1) / simd.BlockSize; p.Blocks() != want {
		t.Fatalf("%s: %d plane blocks, want %d", label, p.Blocks(), want)
	}
	quotes, inString := refQuoteScan(data)
	for i := range data {
		w, bit := i/simd.BlockSize, uint(i%simd.BlockSize)
		if p.Quote[w]>>bit&1 == 1 != quotes[i] || p.InString[w]>>bit&1 == 1 != inString[i] {
			t.Fatalf("%s: planes disagree with the scalar quote oracle at byte %d", label, i)
		}
	}
	s := NewStreamInput(in)
	defer s.Release()
	idx := 0
	for !s.Exhausted() {
		if idx >= p.Blocks() {
			t.Fatalf("%s: stream visited block %d past the planes' %d", label, idx, p.Blocks())
		}
		checkStreamBlock(t, s, p, label)
		idx++
		if !s.Advance() {
			break
		}
	}
	if idx != p.Blocks() {
		t.Fatalf("%s: stream visited %d blocks, planes hold %d", label, idx, p.Blocks())
	}
	if want := s.carry.prevInString != 0; p.EndInString != want && len(data) > 0 {
		t.Fatalf("%s: EndInString=%v, stream carry says %v", label, p.EndInString, want)
	}
	if want := s.carry.prevEscaped != 0; p.EndEscaped != want && len(data) > 0 {
		t.Fatalf("%s: EndEscaped=%v, stream carry says %v", label, p.EndEscaped, want)
	}
}

// checkStreamBlock asserts that the stream's current block masks equal the
// planes' word for that block, and that the symbol planes equal the
// per-block kernels over the block's bytes with in-string positions masked.
func checkStreamBlock(t *testing.T, s *Stream, p *Planes, label string) {
	t.Helper()
	idx := s.BlockStart() / simd.BlockSize
	if s.quoteMask != p.Quote[idx] || s.inString != p.InString[idx] {
		t.Fatalf("%s block %d: stream quote=%#x inString=%#x, planes quote=%#x inString=%#x",
			label, idx, s.quoteMask, s.inString, p.Quote[idx], p.InString[idx])
	}
	if s.braces != p.Opens[idx]|p.Closes[idx] || s.commaM != p.Commas[idx] || s.colonM != p.Colons[idx] {
		t.Fatalf("%s block %d: stream symbol masks diverge from the planes", label, idx)
	}
	opens, closes := simd.BracketMasks(s.block)
	commas := simd.CmpEq8(s.block, ',')
	colons := simd.CmpEq8(s.block, ':')
	notStr := ^s.inString
	if p.Opens[idx] != opens&notStr || p.Closes[idx] != closes&notStr ||
		p.Commas[idx] != commas&notStr || p.Colons[idx] != colons&notStr {
		t.Fatalf("%s block %d: symbol planes diverge from per-block masks", label, idx)
	}
}

func planesCorpus() [][]byte {
	docs := [][]byte{
		nil,
		[]byte(`{}`),
		[]byte(`{"a": [1, 2, {"b": "x,y:z"}], "c": null}`),
		[]byte(`{"esc\\": "\"quoted\""}`),
		[]byte(`"unterminated`),
		[]byte(`{"open": [1, 2`),
		[]byte("\\\\\\\\\\\\"),
		[]byte(`{"` + string(make([]byte, 200)) + `": 1}`),
	}
	// A backslash run straddling the 64-byte block boundary — the carried
	// escape parity is the hardest state to batch.
	b := make([]byte, 130)
	for i := range b {
		b[i] = ' '
	}
	for i := 60; i < 70; i++ {
		b[i] = '\\'
	}
	b[70], b[75] = '"', '"'
	docs = append(docs, b)
	// A string spanning several blocks, with quotes exactly on boundaries.
	long := []byte(`{"k": "`)
	for len(long) < 63 {
		long = append(long, 'x')
	}
	long = append(long, '"', ':', '[', ']', '}')
	docs = append(docs, long)
	return docs
}

// forEachBackend runs f once per kernel backend available on this host,
// forcing it for the duration: the planes must be bit-identical whichever
// hardware path built them.
func forEachBackend(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	prev := simd.Backend()
	defer func() {
		if err := simd.SetBackend(prev); err != nil {
			t.Fatalf("restoring backend %s: %v", prev, err)
		}
	}()
	for _, name := range simd.Backends() {
		if err := simd.SetBackend(name); err != nil {
			t.Fatalf("SetBackend(%q): %v", name, err)
		}
		t.Run("simd="+name, f)
	}
}

func TestPlanesEquivalence(t *testing.T) {
	forEachBackend(t, func(t *testing.T) {
		for i, data := range planesCorpus() {
			checkPlanesEquivalence(t, data, input.NewBytes(data), "bytes")
			for _, window := range []int{64, 128, 256} {
				checkPlanesEquivalence(t, data,
					input.NewBuffered(&chunkReader{data: data, n: 7}, window), "buffered")
			}
			_ = i
		}
	})
}

// TestPlanesAlignment pins the plane-allocation invariants the vector
// kernels rely on: every plane 32-byte aligned, capacity rounded to whole
// vector lanes so lane-rounded passes never need a scalar tail, padding
// words zero, and the whole build a constant number of allocations.
func TestPlanesAlignment(t *testing.T) {
	for _, bytes := range []int{1, 63, 64, 65, 64 * simd.VecWords, 64*simd.VecWords + 1, 4096, 10000} {
		data := make([]byte, bytes)
		for i := range data {
			data[i] = "{}[]:,\"x "[i%9]
		}
		p := BuildPlanes(data)
		n := (bytes + simd.BlockSize - 1) / simd.BlockSize
		rn := simd.RoundWords(n)
		for name, plane := range map[string][]uint64{
			"Quote": p.Quote, "InString": p.InString, "Opens": p.Opens,
			"Closes": p.Closes, "Commas": p.Commas, "Colons": p.Colons,
		} {
			if len(plane) != n {
				t.Fatalf("%d bytes: len(%s) = %d, want %d", bytes, name, len(plane), n)
			}
			if cap(plane) != rn {
				t.Fatalf("%d bytes: cap(%s) = %d, want lane-rounded %d", bytes, name, cap(plane), rn)
			}
			if addr := uintptr(unsafe.Pointer(&plane[:1][0])); addr%simd.VecAlign != 0 {
				t.Fatalf("%d bytes: %s base %#x not %d-byte aligned", bytes, name, addr, simd.VecAlign)
			}
			for i, w := range plane[n:rn] {
				if w != 0 {
					t.Fatalf("%d bytes: %s padding word %d = %#x, want 0", bytes, name, n+i, w)
				}
			}
		}
	}
	// The whole build is a constant three allocations: the backing array,
	// the struct, and the padded tail block (which escapes through the
	// backend dispatch's function pointer) — never per-block garbage.
	data := []byte(`{"a": [1, 2, {"b": "x,y:z"}], "c": null}`)
	if allocs := testing.AllocsPerRun(50, func() { _ = BuildPlanes(data) }); allocs > 3 {
		t.Fatalf("BuildPlanes allocates %v times per run, want <= 3", allocs)
	}
}

// FuzzPlanesEquivalence asserts the whole-document sweep is bit-identical
// to the scalar oracle, the per-block kernels and a sequentially walked
// cold stream for arbitrary bytes — not just valid JSON: the planes feed
// the same classifiers, so they must agree even on garbage.
func FuzzPlanesEquivalence(f *testing.F) {
	for _, data := range planesCorpus() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		prev := simd.Backend()
		defer func() { _ = simd.SetBackend(prev) }()
		for _, name := range simd.Backends() {
			if err := simd.SetBackend(name); err != nil {
				t.Fatalf("SetBackend(%q): %v", name, err)
			}
			checkPlanesEquivalence(t, data, input.NewBytes(data), "bytes/"+name)
			checkPlanesEquivalence(t, data,
				input.NewBuffered(&chunkReader{data: data, n: 7}, 64), "buffered/"+name)
		}
	})
}

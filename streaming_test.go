package rsonpath

// Tests for the RunReader family: differential equality between the
// in-memory and buffered streaming paths, bounded-memory behavior on
// documents much larger than the window, and the documented failure modes.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// chunkedReader yields at most n bytes per Read, forcing refills at
// arbitrary alignments.
type chunkedReader struct {
	data []byte
	n    int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.n
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// streamingEngines are the engines that support RunReader.
var streamingEngines = []EngineKind{EngineRsonpath, EngineStackless}

// TestStreamingCompliance runs the whole compliance corpus through every
// streaming engine twice — once in memory, once through a buffered input
// with a pathologically small window fed in 3-byte reads — and requires
// identical match offsets.
func TestStreamingCompliance(t *testing.T) {
	cases := append(append([]complianceCase{}, complianceCases...), sliceComplianceCases...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, kind := range streamingEngines {
				for _, window := range []int{64, 4096} {
					q, err := Compile(c.query, WithEngine(kind), WithStreamWindow(window))
					if errors.Is(err, ErrUnsupportedQuery) {
						continue // stackless's descendant-only fragment
					}
					if err != nil {
						t.Fatalf("[%v] compile: %v", kind, err)
					}
					want, err := q.MatchOffsets([]byte(c.doc))
					if err != nil {
						t.Fatalf("[%v] in-memory run: %v", kind, err)
					}
					var got []int
					err = q.RunReader(&chunkedReader{data: []byte(c.doc), n: 3},
						func(pos int) { got = append(got, pos) })
					if err != nil {
						t.Fatalf("[%v window=%d] RunReader: %v", kind, window, err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("[%v window=%d] %s on %s:\n  streamed  %v\n  in-memory %v",
							kind, window, c.query, c.doc, got, want)
					}
				}
			}
		})
	}
}

// TestQuerySetRunReader holds the set's streamed pass to the in-memory one.
func TestQuerySetRunReader(t *testing.T) {
	doc := `{"a": {"b": [1, {"a": 2}], "c": 3}, "d": [{"a": 4}, 5], "b": 6}`
	set := MustCompileSet([]string{"$..a", "$.a.b[*]", "$..b"}, WithStreamWindow(64))
	type hit struct{ q, pos int }
	var want, got []hit
	if err := set.Run([]byte(doc), func(q, pos int) { want = append(want, hit{q, pos}) }); err != nil {
		t.Fatal(err)
	}
	err := set.RunReader(&chunkedReader{data: []byte(doc), n: 5},
		func(q, pos int) { got = append(got, hit{q, pos}) })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("streamed %v, in-memory %v", got, want)
	}
}

// TestRunReaderValues checks streamed value extraction against MatchValues.
func TestRunReaderValues(t *testing.T) {
	doc := `{"a": {"x": [1, 2]}, "b": {"a": "str\"ing"}, "c": [{"a": null}], "a2": 7}`
	q := MustCompile("$..a", WithStreamWindow(64))
	wantVals, err := q.MatchValues([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = q.RunReaderValues(&chunkedReader{data: []byte(doc), n: 3},
		func(_ int, v []byte) { got = append(got, string(v)) })
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(wantVals))
	for i, v := range wantVals {
		want[i] = string(v)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("streamed %q, in-memory %q", got, want)
	}
}

// TestRunReaderDOMUnsupported pins the documented failure mode: EngineDOM
// cannot stream, but CountReader still works by buffering.
func TestRunReaderDOMUnsupported(t *testing.T) {
	doc := `{"a": 1, "b": {"a": 2}}`
	q := MustCompile("$..a", WithEngine(EngineDOM))
	if err := q.RunReader(strings.NewReader(doc), func(int) {}); !errors.Is(err, ErrStreamingUnsupported) {
		t.Fatalf("RunReader on DOM: %v, want ErrStreamingUnsupported", err)
	}
	if err := q.RunReaderValues(strings.NewReader(doc), func(int, []byte) {}); !errors.Is(err, ErrStreamingUnsupported) {
		t.Fatalf("RunReaderValues on DOM: %v, want ErrStreamingUnsupported", err)
	}
	n, err := q.CountReader(strings.NewReader(doc))
	if err != nil || n != 2 {
		t.Fatalf("CountReader on DOM: (%d, %v), want (2, nil)", n, err)
	}
}

// TestRunReaderWindowDefeat pins the other documented failure mode: a
// single document feature larger than the window aborts with *input.Error
// (surfaced via errors.As on the wrapped type) rather than mis-scanning.
func TestRunReaderWindowDefeat(t *testing.T) {
	// A key far larger than the 64-byte window's retention capacity.
	doc := `{"` + strings.Repeat("k", 4096) + `": 1, "a": 2}`
	q := MustCompile("$.a", WithStreamWindow(64))
	err := q.RunReader(strings.NewReader(doc), func(int) {})
	if err == nil {
		t.Fatal("oversized key within a tiny window did not error")
	}
}

// TestRunReaderBoundedMemory streams a document ~64x larger than the window
// and asserts the run allocates a small fraction of the document size.
func TestRunReaderBoundedMemory(t *testing.T) {
	const entries = 200000
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < entries; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"a": %d}`, i)
	}
	b.WriteByte(']')
	doc := b.Bytes()

	const window = 64 << 10
	if len(doc) < 32*window {
		t.Fatalf("document too small for the claim: %d bytes", len(doc))
	}
	q := MustCompile("$..a", WithStreamWindow(window))

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	err := q.RunReader(bytes.NewReader(doc), func(int) { n++ })
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if n != entries {
		t.Fatalf("matched %d values, want %d", n, entries)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	// The buffered input retains window + look-behind (2x window here);
	// everything else on the streaming path is allocation-free. Allow 8x
	// window for noise — still an order of magnitude under the document.
	if limit := uint64(8 * window); alloc > limit {
		t.Fatalf("RunReader allocated %d bytes for a %d-byte document (limit %d)",
			alloc, len(doc), limit)
	}
}

// TestRunLinesOffsetsReuse exercises the documented visit-scoped lifetime
// of LineMatch.Offsets: copies taken during the visit stay correct across
// records with different match counts (which forces slice reuse).
func TestRunLinesOffsetsReuse(t *testing.T) {
	in := `{"a": 1, "b": {"a": 2}}` + "\n" + `{"a": 3}` + "\n" + `{"x": {"a": 4}, "a": 5}` + "\n"
	q := MustCompile("$..a")
	var lines []int
	var copies [][]int
	err := q.RunLines(strings.NewReader(in), func(m LineMatch) error {
		lines = append(lines, m.Line)
		copies = append(copies, append([]int(nil), m.Offsets...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[[6 20] [6] [12 21]]"
	if fmt.Sprint(lines) != "[1 2 3]" || fmt.Sprint(copies) != want {
		t.Fatalf("lines %v offsets %v, want [1 2 3] %s", lines, copies, want)
	}
}

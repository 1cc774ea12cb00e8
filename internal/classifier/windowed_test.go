package classifier

import (
	"errors"
	"strings"
	"testing"

	"rsonpath/internal/input"
	"rsonpath/internal/simd"
)

// anchorable reports, per byte of data, whether it is a legal JumpTo
// anchor: outside any string and not escaped, as every value boundary of
// well-formed JSON is.
func anchorable(data []byte) []bool {
	ok := make([]bool, len(data))
	inString, escaped := false, false
	for i, b := range data {
		ok[i] = !inString && !escaped
		switch {
		case escaped:
			escaped = false
		case b == '\\':
			escaped = true
		case b == '"':
			inString = !inString
		}
	}
	return ok
}

// driveWindowed replays ops against a cold stream over in and holds every
// block it lands on to the whole-document planes of data. Each op is one
// move: an Advance, a JumpTo to the first anchor at or after a target up to
// ~1 KiB ahead (inside the window, just past it, or far beyond), or a depth
// skip from the current block held to the scalar oracle. After the ops the
// stream is walked to the end of input.
func driveWindowed(t *testing.T, data, ops []byte, in input.Input, label string) {
	t.Helper()
	p := BuildPlanes(data)
	anchors := anchorable(data)
	err := input.Guard(func() error {
		s := NewStreamInput(in)
		defer s.Release()
		for _, op := range ops {
			if !s.Exhausted() {
				checkStreamBlock(t, s, p, label)
			}
			switch op % 3 {
			case 0:
				s.Advance()
			case 1:
				target := s.BlockStart() + int(op/3)*12
				for target < len(data) && !anchors[target] {
					target++
				}
				if target < len(data) {
					s.JumpTo(target)
				}
			default:
				if s.Exhausted() {
					continue
				}
				from := s.BlockStart()
				got, gotOK := SkipToClose(s, from, '{')
				want, wantOK := refSkipToClose(data, from, '{')
				if gotOK != wantOK || gotOK && got != want {
					t.Fatalf("%s: SkipToClose from %d = (%d,%v), oracle (%d,%v)",
						label, from, got, gotOK, want, wantOK)
				}
			}
		}
		for !s.Exhausted() {
			checkStreamBlock(t, s, p, label)
			if !s.Advance() {
				break
			}
		}
		return nil
	})
	// The smallest buffered window retains only a few blocks behind the
	// cursor; a backslash run longer than that before a jump anchor is the
	// documented window violation, not a divergence.
	if err != nil && !errors.Is(err, input.ErrWindow) {
		t.Fatalf("%s: %v", label, err)
	}
}

// windowedCorpus seeds FuzzWindowedStream with the features that straddle
// window edges and growth steps — the first window ends at byte 128, the
// next ones at 384, 896 and 1920 — under sequential walks and jumps.
func windowedCorpus() (docs, ops [][]byte) {
	walk := make([]byte, 40) // Advance only: every refill is a carry
	jumpy := []byte{1, 0, 4, 0, 0, 31, 0, 2, 94, 0, 0, 0, 7, 2, 0, 61, 0, 0}
	for _, edge := range []int{128, 384, 896, 1920} {
		for _, d := range []int{-3, -1, 0, 1} {
			for _, doc := range []string{
				// A string running across the edge.
				`{"k": "` + strings.Repeat("x", edge+d) + `", "a": [1, {"b": 2}]}`,
				// An escaped quote straddling the edge.
				`{"k": "` + strings.Repeat("y", edge+d-7) + `\"}", "z": {}}`,
				// An escape run straddling the edge, then a quote.
				strings.Repeat(" ", edge+d-6) + strings.Repeat(`\`, 11) + `"x" [{}]`,
			} {
				docs = append(docs, []byte(doc), []byte(doc))
				ops = append(ops, walk, jumpy)
			}
		}
	}
	return docs, ops
}

// FuzzWindowedStream asserts that a cold stream — lazily classified window
// by window, with the quote state carried across sequential refills and
// reconstructed at jump landings — serves block masks bit-identical to
// BuildPlanes over the whole document, for arbitrary bytes and arbitrary
// move sequences, over an in-memory input and over a buffered input with
// the smallest legal window, on every backend.
func FuzzWindowedStream(f *testing.F) {
	docs, ops := windowedCorpus()
	for i := range docs {
		f.Add(docs[i], ops[i])
	}
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		prev := simd.Backend()
		defer func() { _ = simd.SetBackend(prev) }()
		for _, name := range simd.Backends() {
			if err := simd.SetBackend(name); err != nil {
				t.Fatalf("SetBackend(%q): %v", name, err)
			}
			driveWindowed(t, data, ops, input.NewBytes(data), "bytes/"+name)
			driveWindowed(t, data, ops,
				input.NewBuffered(&chunkReader{data: data, n: 7}, simd.BlockSize), "buffered/"+name)
		}
	})
}

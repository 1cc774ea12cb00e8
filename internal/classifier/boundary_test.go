package classifier

import (
	"io"
	"strings"
	"testing"

	"rsonpath/internal/input"
)

// chunkReader yields at most n bytes per Read so that every buffered-input
// refill boundary is exercised, not just the ones aligned with len(p).
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
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

// bufferedSeek runs SeekLabelPattern over a window-bounded input fed in small
// reads, under Guard so window violations surface as errors.
func bufferedSeek(data []byte, label string, window, chunk int) (k, v int, ok bool, err error) {
	err = input.Guard(func() error {
		in := input.NewBuffered(&chunkReader{data: data, n: chunk}, window)
		s := NewStreamInput(in)
		k, v, ok = seekLabel(s, 0, label)
		return nil
	})
	return
}

// TestSeekLabelAcrossBoundaries sweeps a sought key across every alignment
// of the 64-byte block grid and the buffered window's refill boundary,
// for documents whose hazardous features — the pattern itself, an escaped
// quote inside the key, a backslash run ending the key, an in-string decoy
// occurrence — can straddle either boundary. The in-memory stream (already
// held to a scalar oracle by the label tests) is the reference.
func TestSeekLabelAcrossBoundaries(t *testing.T) {
	type maker struct {
		name string
		mk   func(pad string) (doc, label string)
	}
	makers := []maker{
		{"plain", func(pad string) (string, string) {
			return `{` + pad + `"needle": 1}`, "needle"
		}},
		{"escaped quote in key", func(pad string) (string, string) {
			return `{` + pad + `"a\"b": 1}`, `a\"b`
		}},
		{"backslash run ends key", func(pad string) (string, string) {
			return `{` + pad + `"k\\\\": 1}`, `k\\\\`
		}},
		{"in-string decoy first", func(pad string) (string, string) {
			return `{"d": "x \"needle\": 9",` + pad + ` "needle": 1}`, "needle"
		}},
	}
	pads := make([]int, 0, 260)
	for p := 0; p <= 160; p++ {
		pads = append(pads, p) // first and second block boundaries
	}
	for p := 520; p <= 620; p++ {
		pads = append(pads, p) // refill/slide region of the smallest window
	}
	for _, m := range makers {
		t.Run(m.name, func(t *testing.T) {
			for _, pad := range pads {
				doc, label := m.mk(strings.Repeat(" ", pad))
				data := []byte(doc)
				wantK, wantV, wantOK := seekLabel(NewStream(data), 0, label)
				for _, window := range []int{64, 128, 1024} {
					for _, chunk := range []int{7, 64} {
						k, v, ok, err := bufferedSeek(data, label, window, chunk)
						if err != nil {
							t.Fatalf("pad=%d window=%d chunk=%d: %v", pad, window, chunk, err)
						}
						if ok != wantOK || (ok && (k != wantK || v != wantV)) {
							t.Fatalf("pad=%d window=%d chunk=%d: got (%d,%d,%v), want (%d,%d,%v)",
								pad, window, chunk, k, v, ok, wantK, wantV, wantOK)
						}
					}
				}
			}
		})
	}
}

// TestSkipToCloseAcrossRefills holds the depth scan to the in-memory result
// while braces hidden inside strings (with escaped quotes) straddle block
// and refill boundaries.
func TestSkipToCloseAcrossRefills(t *testing.T) {
	for reps := 0; reps <= 230; reps += 1 {
		doc := `{"s": "` + strings.Repeat(`\"}`, reps) + `", "o": {"p": [{}]}}`
		data := []byte(doc)
		want := len(data) - 1
		if p, ok := SkipToClose(NewStream(data), 1, '{'); !ok || p != want {
			t.Fatalf("in-memory oracle broken: reps=%d got (%d,%v)", reps, p, ok)
		}
		for _, window := range []int{64, 256} {
			var got int
			var ok bool
			err := input.Guard(func() error {
				in := input.NewBuffered(&chunkReader{data: data, n: 7}, window)
				s := NewStreamAt(in, 0)
				got, ok = SkipToClose(s, 1, '{')
				return nil
			})
			if err != nil {
				t.Fatalf("reps=%d window=%d: %v", reps, window, err)
			}
			if !ok || got != want {
				t.Fatalf("reps=%d window=%d: got (%d,%v), want (%d,true)", reps, window, got, ok, want)
			}
		}
	}
}

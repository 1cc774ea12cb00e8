package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"rsonpath/internal/classifier"
	"rsonpath/internal/dom"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
)

// A cold stream's windows over an in-memory document end at these bytes:
// two blocks first, doubling on every sequential refill.
var windowEdges = []int{128, 384, 896, 1920}

// cursorEdgeDocs builds documents that put the structural cursor's edges
// where a window or a block ends: keys whose opening quote lies in the
// previous window (so the Quote plane cannot serve it and the byte walk
// must), keys straddling a block boundary, keys with escaped quotes and
// with even and odd backslash runs, a depth skip landing in a window's
// last block, and toggles that switch on mid-block.
func cursorEdgeDocs() []string {
	var docs []string
	// A key whose opening quote sits d bytes before a window edge.
	for _, edge := range windowEdges {
		for _, d := range []int{1, 2, 5, 9} {
			head := `{"pad": "`
			tail := `", "`
			n := edge - d - len(head) - len(tail) + 1 // the key's quote at edge-d
			docs = append(docs,
				head+strings.Repeat("p", n)+tail+`akey": {"a": 1, "b": [2, {"a": 3}]}, "a": [4, 5]}`,
				head+strings.Repeat("q", n)+tail+`a": 6, "x": {"a": 7}}`,
			)
		}
	}
	// A key straddling a block boundary at byte 64 and at byte 192.
	for _, at := range []int{64, 192} {
		for _, d := range []int{-15, -2, 0} {
			pad := at + d - len(`{"s": "", "`)
			docs = append(docs, `{"s": "`+strings.Repeat("s", pad)+`", "a`+strings.Repeat("k", 20)+`": 1, "a": {"a": 2}}`)
		}
	}
	// Escaped quotes, even and odd backslash runs before a key's quotes.
	docs = append(docs,
		`{"a\"b": 1, "c\\": {"a": 2}, "d\\\"e": [3], "\\\\": 4, "a": "\\\"x\\"}`,
		`[{"\"": {"a": 1}}, {"a\\\\\\": 2}, {"\\a": 3, "a": {"\"a\"": 4}}]`,
		`{"x": "`+strings.Repeat(`\\`, 61)+`", "a": {"a\"": 5, "a": 6}}`,
		`{"x": "`+strings.Repeat(`\\`, 60)+`\"", "a": 7}`,
	)
	// A rejected subtree whose closer lands in the last block of a window,
	// d bytes before its edge.
	for _, edge := range windowEdges {
		for _, d := range []int{1, 10, 40} {
			const head, unit = `{"skip": [`, `[1, {"b": 2}], `
			n := edge - d - len(head) // the array's content, then its closer
			k := (n - 1) / len(unit)
			body := strings.Repeat(unit, k) + "0" + strings.Repeat(" ", n-1-k*len(unit))
			docs = append(docs, head+body+`], "a": {"a": 1}}`)
		}
	}
	// Colons and commas that switch on mid-block, after symbols of the
	// same class before the consumption point.
	docs = append(docs,
		`{"c": 3, "d": [1, 2], "x": {"a": 1, "b": [4, 5, {"a": 6}]}}`,
		`[1, 2, {"x": [7, 8], "a": 9}, [10, 11], {"x": {"a": [12]}}]`,
	)
	return docs
}

var cursorEdgeQueries = []string{
	"$..a", "$.a", "$.*.a", "$.x.a", "$.*", "$..*", "$.x.b[1]", "$[2].a", "$.a[1]", "$..a[0]",
}

// TestCursorEdgesAgainstOracle runs every edge document through the engine
// over an in-memory input (cold windows), a buffered input whose window is
// one block, and whole-document planes, and holds each run's offsets to
// the DOM oracle's.
func TestCursorEdgesAgainstOracle(t *testing.T) {
	for _, doc := range cursorEdgeDocs() {
		data := []byte(doc)
		root, err := dom.Parse(data)
		if err != nil {
			t.Fatalf("edge document is not valid JSON: %v\n%s", err, doc)
		}
		planes := classifier.BuildPlanes(data)
		for _, query := range cursorEdgeQueries {
			e, err := CompileQuery(query, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := dom.MatchOffsets(root, jsonpath.MustParse(query))
			runs := map[string]func(emit func(int)) error{
				"bytes": func(emit func(int)) error { return e.Run(data, emit) },
				"buffered": func(emit func(int)) error {
					return e.RunInput(input.NewBuffered(bytes.NewReader(data), input.BlockSize), emit)
				},
				"planes": func(emit func(int)) error { return e.RunPlanes(input.NewBytes(data), planes, emit) },
			}
			for name, runFn := range runs {
				var got []int
				err := runFn(func(pos int) { got = append(got, pos) })
				var winErr *input.Error
				if name == "buffered" && errors.As(err, &winErr) {
					continue // a key longer than the one-block window
				}
				if err != nil || !equalInts(got, want) {
					t.Fatalf("%s %s on %q:\n  got %v (%v)\n  oracle %v", name, query, doc, got, err, want)
				}
			}
		}
	}
}

// TestCursorLabelsMatchByteWalk walks every edge document with all symbols
// enabled, skipping every third subtree the way a rejected child is
// skipped, and holds the label the run reads at every opener and colon —
// from the window's Quote plane, or by the fallback byte walk — to
// labelBeforeInput's, over each input.
func TestCursorLabelsMatchByteWalk(t *testing.T) {
	for _, doc := range cursorEdgeDocs() {
		data := []byte(doc)
		planes := classifier.BuildPlanes(data)
		inputs := map[string]func() (input.Input, *classifier.Stream){
			"bytes": func() (input.Input, *classifier.Stream) {
				in := input.NewBytes(data)
				return in, classifier.NewStreamInput(in)
			},
			"buffered": func() (input.Input, *classifier.Stream) {
				in := input.NewBuffered(bytes.NewReader(data), input.BlockSize)
				return in, classifier.NewStreamInput(in)
			},
			"planes": func() (input.Input, *classifier.Stream) {
				in := input.NewBytes(data)
				return in, classifier.NewStreamPlanes(in, planes)
			},
		}
		for name, open := range inputs {
			err := input.Guard(func() error {
				in, s := open()
				defer s.Release()
				r := &docRun{in: in, data: input.Contiguous(in), stream: s}
				it := classifier.NewStructural(s, 0)
				it.SetCommas(true)
				it.SetColons(true)
				for opened := 0; ; {
					pos, ch, ok := it.Next()
					if !ok {
						return nil
					}
					switch ch {
					case '{', '[':
						label, has, lok := r.labelBefore(pos)
						wl, wh, wok := labelBeforeInput(in, pos)
						if !bytes.Equal(label, wl) || has != wh || lok != wok {
							return fmt.Errorf("opener at %d: label %q,%v,%v, byte walk %q,%v,%v", pos, label, has, lok, wl, wh, wok)
						}
						if opened++; opened%3 == 0 {
							end, ok := classifier.SkipToClose(s, pos+1, ch)
							if !ok {
								return fmt.Errorf("skip from %d failed", pos)
							}
							it.Reset(end + 1)
						}
					case ':':
						label, lok := r.keyBefore(pos)
						wl, _, wok := labelBeforeInput(in, pos+1)
						if !bytes.Equal(label, wl) || lok != wok {
							return fmt.Errorf("colon at %d: key %q,%v, byte walk %q,%v", pos, label, lok, wl, wok)
						}
					}
				}
			})
			var winErr *input.Error
			if name == "buffered" && errors.As(err, &winErr) {
				continue // a key longer than the one-block window
			}
			if err != nil {
				t.Fatalf("%s on %q: %v", name, doc, err)
			}
		}
	}
}

package engine

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"rsonpath/internal/dom"
	"rsonpath/internal/faultreader"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
)

// FuzzEngineAgainstOracle feeds arbitrary bytes to the engine. When the
// input is valid JSON, the engine must agree with the DOM oracle exactly;
// when it is not, the engine must return cleanly (error or not) without
// panicking. The seed corpus is replayed as ordinary unit tests; run
// `go test -fuzz FuzzEngineAgainstOracle ./internal/engine` to explore.
func FuzzEngineAgainstOracle(f *testing.F) {
	seeds := []string{
		`{"a": 1}`,
		`{"a": {"b": [1, {"a": 2}]}, "b": "x\"y"}`,
		`[[], {}, [{"a": []}]]`,
		`{"a": "{\"a\": 1}"}`,
		`{"k\"ey": {"a": 1}}`,
		`{`,
		`{"a":`,
		`]`,
		`tru`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(edgeSeed()))
	f.Add([]byte(`{"k\"ey": {"key": {"b": 2}}, "x": "key", "key": [{"b": "\"key\":"}]}`))
	// Multi-byte and escaped-quote labels reach the seeker's pair filter
	// with a pair inside the label; one-byte labels pair with a quote.
	queries := []string{"$..a", "$.a.b", "$.a.*", "$..a..b", "$[0]", "$.*",
		"$..key", "$..key..b", `$..['k\"ey']`}
	type variant struct {
		e     *Engine
		query string
	}
	var variants []variant
	for _, q := range queries {
		for _, opts := range []Options{{}, {EnableTailSkip: true}} {
			e, err := CompileQuery(q, opts)
			if err != nil {
				f.Fatal(err)
			}
			variants = append(variants, variant{e, q})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		root, parseErr := dom.Parse(data)
		for _, v := range variants {
			got, err := v.e.Matches(data)
			// Differential: the same bytes through a window-bounded buffered
			// input must match the in-memory run exactly. A *input.Error is
			// the one sanctioned divergence — a document feature larger than
			// the (tiny) window defeats it by design.
			var bufGot []int
			bufErr := v.e.RunInput(
				input.NewBuffered(bytes.NewReader(data), 64),
				func(pos int) { bufGot = append(bufGot, pos) })
			if parseErr != nil {
				continue // malformed: any clean result is acceptable
			}
			if err != nil {
				t.Fatalf("%s on valid %q: %v", v.query, data, err)
			}
			var winErr *input.Error
			switch {
			case errors.As(bufErr, &winErr):
				// window defeat: acceptable on any input
			case bufErr != nil:
				t.Fatalf("%s buffered on valid %q: %v", v.query, data, bufErr)
			case !equalInts(bufGot, got):
				t.Fatalf("%s on %q:\n  buffered: %v\n  in-memory: %v", v.query, data, bufGot, got)
			}
			// Hostile readers that still deliver the exact bytes (one byte
			// per Read, reads torn at every block boundary) must change
			// nothing: same matches, same sanctioned window-defeat escape.
			for name, r := range map[string]io.Reader{
				"one-byte":   faultreader.OneByte(data),
				"block-torn": faultreader.Chunked(data, input.BlockSize),
			} {
				var faultGot []int
				faultErr := v.e.RunInput(
					input.NewBuffered(r, 64),
					func(pos int) { faultGot = append(faultGot, pos) })
				switch {
				case errors.As(faultErr, &winErr):
				case faultErr != nil:
					t.Fatalf("%s %s on valid %q: %v", v.query, name, data, faultErr)
				case !equalInts(faultGot, got):
					t.Fatalf("%s %s on %q:\n  faulted: %v\n  in-memory: %v", v.query, name, data, faultGot, got)
				}
			}
			want := dom.MatchOffsets(root, jsonpath.MustParse(v.query))
			if !equalInts(got, want) {
				t.Fatalf("%s on %q:\n  engine: %v\n  oracle: %v", v.query, data, got, want)
			}
		}
	})
}

// edgeSeed is a document past two 64-byte blocks whose "key" keys
// straddle the 32-, 64- and 128-byte edges: the AVX2 pair filter's vector
// halves, its chunks, and a block boundary beyond the second chunk.
func edgeSeed() string {
	var sb strings.Builder
	sb.WriteString(`{"p":"`)
	for _, at := range []int{30, 62, 126} {
		for sb.Len() < at-2 {
			sb.WriteByte('x')
		}
		sb.WriteString(`","key":{"b":1},"q":"`)
	}
	sb.WriteString(`"}`)
	return sb.String()
}

// FuzzQueryParser feeds arbitrary strings to the query parser: it must
// never panic, and anything it accepts must render canonically and
// re-parse to the same canonical form.
func FuzzQueryParser(f *testing.F) {
	for _, s := range []string{
		"$", "$.a", "$..a.b", "$.*", "$['a b']", "$[0,2]", "$..['x','y']",
		"$.", "$[", "$['", "a", "$...a", "$['a\\'b']",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := jsonpath.Parse(s)
		if err != nil {
			return
		}
		canonical := q.String()
		q2, err := jsonpath.Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canonical, s, err)
		}
		if q2.String() != canonical {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canonical, q2.String())
		}
	})
}

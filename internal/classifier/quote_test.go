package classifier

import (
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/simd"
)

// refQuoteScan is the scalar oracle: a sequential scan computing, for every
// position, whether the byte is an unescaped quote and whether the position
// is inside a string (opening quote inclusive, closing exclusive).
func refQuoteScan(data []byte) (quotes, inString []bool) {
	quotes = make([]bool, len(data))
	inString = make([]bool, len(data))
	in := false
	escaped := false
	for i, b := range data {
		switch {
		case escaped:
			escaped = false
			inString[i] = in
		case b == '\\':
			escaped = true
			inString[i] = in
		case b == '"':
			quotes[i] = true
			if !in {
				in = true
				inString[i] = true // opening quote is inside
			} else {
				in = false
				inString[i] = false // closing quote is outside
			}
		default:
			inString[i] = in
		}
	}
	return quotes, inString
}

// streamMasks collects the per-position quote/in-string classification of a
// Stream over data.
func streamMasks(data []byte) (quotes, inString []bool) {
	quotes = make([]bool, len(data))
	inString = make([]bool, len(data))
	s := NewStream(data)
	for !s.Exhausted() {
		base := s.BlockStart()
		for i := 0; i < min(simd.BlockSize, len(data)-base); i++ {
			quotes[base+i] = s.QuoteMask()>>uint(i)&1 == 1
			inString[base+i] = s.InString()>>uint(i)&1 == 1
		}
		if !s.Advance() {
			break
		}
	}
	return quotes, inString
}

func assertQuoteOracle(t *testing.T, data []byte) {
	t.Helper()
	wantQ, wantS := refQuoteScan(data)
	gotQ, gotS := streamMasks(data)
	for i := range data {
		if gotQ[i] != wantQ[i] {
			t.Fatalf("quote mask mismatch at %d in %q: got %v want %v", i, data, gotQ[i], wantQ[i])
		}
		if gotS[i] != wantS[i] {
			t.Fatalf("in-string mask mismatch at %d in %q: got %v want %v", i, data, gotS[i], wantS[i])
		}
	}
}

func TestQuoteClassifierSimple(t *testing.T) {
	cases := []string{
		`{"a": "b"}`,
		`""`,
		`"\""`,
		`"\\"`,
		`"\\\""`,
		`{"a":"{\"b\":2022}"}`, // the paper's §2 escaping example
		`"x\"" `,
		`"x\\" `,
		`[1, 2, "three", {"four": "5"}]`,
		`"unterminated`,
		`no quotes at all`,
		``,
	}
	for _, c := range cases {
		assertQuoteOracle(t, []byte(c))
	}
}

func TestQuoteClassifierBlockBoundaries(t *testing.T) {
	// Strings and escape runs straddling 64-byte boundaries.
	pad := strings.Repeat(" ", 60)
	cases := []string{
		pad + `"long string crossing the boundary"`,
		pad + `"esc\` + `"still inside"`,
		strings.Repeat("\\", 63) + `"`,       // 63 backslashes inside nothing
		`"` + strings.Repeat("\\", 64) + `"`, // even run inside a string
		`"` + strings.Repeat("\\", 127) + `\""`,
		strings.Repeat(" ", 63) + `"` + `boundary-opening quote"`,
	}
	for _, c := range cases {
		assertQuoteOracle(t, []byte(c))
	}
}

func TestQuoteClassifierRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	alphabet := []byte(`"\\ab{}[]:,`)
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(300)
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		assertQuoteOracle(t, data)
	}
}

func TestQuoteClassifierPathologicalEscapes(t *testing.T) {
	// Every backslash-run length from 0 to 130, before a quote, inside a
	// string starting at varying offsets to shift block alignment.
	for offset := 0; offset < 3; offset++ {
		for run := 0; run <= 130; run++ {
			data := strings.Repeat(" ", offset) + `"` + strings.Repeat("\\", run) + `" tail "x"`
			assertQuoteOracle(t, []byte(data))
		}
	}
}

func TestStreamAdvanceBounds(t *testing.T) {
	s := NewStream([]byte(`{}`))
	if s.BlockStart() != 0 || s.Exhausted() {
		t.Fatalf("initial block: start=%d exhausted=%v", s.BlockStart(), s.Exhausted())
	}
	if s.Advance() {
		t.Fatal("Advance past single block should report false")
	}
	if !s.Exhausted() {
		t.Fatal("stream should be exhausted")
	}
}

func TestStreamEmptyInput(t *testing.T) {
	s := NewStream(nil)
	if !s.Exhausted() {
		t.Fatal("empty stream should be exhausted")
	}
	if s.Advance() {
		t.Fatal("Advance on empty stream should report false")
	}
}

func TestStreamPaddingInvisible(t *testing.T) {
	// A block whose content ends mid-block: padding must classify as
	// outside strings and non-quote.
	s := NewStream([]byte(`"ab"`))
	if got := s.QuoteMask(); got != 0b1001 {
		t.Fatalf("quote mask = %#b, want 1001", got)
	}
	if got := s.InString(); got != 0b0111 {
		t.Fatalf("in-string mask = %#b, want 0111", got)
	}
}

func BenchmarkQuoteClassifier(b *testing.B) {
	data := []byte(strings.Repeat(`{"key": "value with \"escapes\" inside", "n": 12345} `, 2000))
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		s := NewStream(data)
		for s.Advance() {
		}
	}
}

var _ = simd.BlockSize

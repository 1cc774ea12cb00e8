package classifier

import (
	"math/rand"
	"strings"
	"testing"
)

// refSkipToClose is the scalar oracle: position of the closer that brings
// relative depth to zero, ignoring characters inside strings. Like the
// depth classifier it counts both bracket kinds, which on well-formed input
// reaches the same closer as counting only the open kind's pair, and
// rejects a landing closer of the other kind. At the end of input it
// returns -1.
func refSkipToClose(data []byte, from int, open byte) (int, bool) {
	_, inString := refQuoteScan(data)
	depth := 1
	for i := from; i < len(data); i++ {
		if inString[i] {
			continue
		}
		switch data[i] {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == 0 {
				return i, data[i] == matchingClose(open)
			}
		}
	}
	return -1, false
}

func assertSkip(t *testing.T, data string, from int, open byte) {
	t.Helper()
	s := NewStream([]byte(data))
	for s.BlockStart()+64 <= from {
		s.Advance()
	}
	at := s.BlockStart()
	gotPos, gotOK := SkipToClose(s, from, open)
	wantPos, wantOK := refSkipToClose([]byte(data), from, open)
	if gotOK != wantOK || gotPos != wantPos {
		t.Fatalf("SkipToClose(%q, %d, %q) = (%d,%v), want (%d,%v)",
			data, from, open, gotPos, gotOK, wantPos, wantOK)
	}
	// The skip moves only the window, never the block view.
	if s.BlockStart() != at {
		t.Fatalf("SkipToClose moved the block view from %d to %d", at, s.BlockStart())
	}
}

func TestSkipToCloseSimple(t *testing.T) {
	assertSkip(t, `{"a":1}`, 1, '{')
	assertSkip(t, `{"a":{"b":{}}} tail`, 1, '{')
	assertSkip(t, `[1,[2,[3]],4]`, 1, '[')
	assertSkip(t, `[]`, 1, '[')
}

func TestSkipToCloseIgnoresStrings(t *testing.T) {
	assertSkip(t, `{"a":"}}}"}`, 1, '{')
	assertSkip(t, `{"a":"\"}"}`, 1, '{')
	assertSkip(t, `["]]", []]`, 1, '[')
}

func TestSkipToCloseIgnoresOtherBracketKind(t *testing.T) {
	// §3.3 tracks only the skipped kind's two characters; the planes track
	// both kinds, which on well-formed input lands on the same closer since
	// the other kind's subtrees nest properly inside.
	assertSkip(t, `{"a":[1,2,{"b":3}]}`, 1, '{')
	assertSkip(t, `[{"a":1},{"b":[2]}]`, 1, '[')
}

func TestSkipToCloseUnterminated(t *testing.T) {
	assertSkip(t, `{"a":{"b":1}`, 1, '{')
	assertSkip(t, `[1,2,3`, 1, '[')
}

func TestSkipToCloseDeepNesting(t *testing.T) {
	// Forces the heuristic path: hundreds of openers, closers far away.
	depth := 500
	doc := strings.Repeat("[", depth) + "1" + strings.Repeat("]", depth)
	assertSkip(t, doc, 1, '[')
	// And from an inner position.
	assertSkip(t, doc, 250, '[')
}

func TestSkipToCloseHeuristicBlocks(t *testing.T) {
	// Blocks made entirely of openers (heuristic must add them all), then
	// blocks of closers.
	doc := "{" + strings.Repeat(`{"a":1},`, 40) + `"z":0}`
	assertSkip(t, doc, 1, '{')
}

func TestSkipToCloseRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	alphabet := []byte(`{}[]"\,: ab`)
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(250)
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		open := byte('{')
		if r.Intn(2) == 0 {
			open = '['
		}
		from := r.Intn(n)
		// Keep the starting block aligned with how the engine calls it.
		assertSkip(t, string(data), from, open)
	}
}

func TestMatchingClose(t *testing.T) {
	if matchingClose('{') != '}' || matchingClose('[') != ']' {
		t.Fatal("matchingClose wrong")
	}
}

func BenchmarkSkipToClose(b *testing.B) {
	inner := strings.Repeat(`{"k":"vvvvvvvvvvvvvvvv"},`, 3000)
	doc := `{"arr":[` + inner[:len(inner)-1] + `]}`
	data := []byte(doc)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		s := NewStream(data)
		if _, ok := SkipToClose(s, 1, '{'); !ok {
			b.Fatal("skip failed")
		}
	}
}

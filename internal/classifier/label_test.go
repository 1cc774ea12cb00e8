package classifier

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/input"
)

// refSeekLabel is the scalar oracle for SeekLabelPattern.
func refSeekLabel(data []byte, from int, label []byte) (keyAt, valueAt int, ok bool) {
	quotes, inString := refQuoteScan(data)
	for q := from; q < len(data); q++ {
		if !quotes[q] || !inString[q] { // must be an opening quote
			continue
		}
		if v, match := verifyKey(input.NewBytes(data), q, label); match {
			return q, v, true
		}
	}
	return 0, 0, false
}

// seekLabel runs SeekLabelPattern with a needle built for label, the way
// the engine builds one per compiled query.
func seekLabel(s *Stream, from int, label string) (keyAt, valueAt int, ok bool) {
	n := NewNeedle([]byte(`"` + label + `"`))
	return SeekLabelPattern(s, from, &n)
}

// seekStart moves from forward to the first position the seeker's contract
// admits: outside strings, unescaped, and not on a closing quote (which
// refQuoteScan marks as outside its string). The engine only ever resumes
// at such positions.
func seekStart(data string, from int) int {
	quotes, inString := refQuoteScan([]byte(data))
	for from < len(data) && (inString[from] || quotes[from] || (from > 0 && data[from-1] == '\\')) {
		from++
	}
	return from
}

func assertSeek(t *testing.T, data string, from int, label string) {
	t.Helper()
	from = seekStart(data, from)
	s := NewStream([]byte(data))
	gotK, gotV, gotOK := seekLabel(s, from, label)
	wantK, wantV, wantOK := refSeekLabel([]byte(data), from, []byte(label))
	if gotOK != wantOK || (gotOK && (gotK != wantK || gotV != wantV)) {
		t.Fatalf("SeekLabelPattern(%q, %d, %q) = (%d,%d,%v), want (%d,%d,%v)",
			data, from, label, gotK, gotV, gotOK, wantK, wantV, wantOK)
	}
	if gotOK && (s.BlockStart() > gotV || gotV >= s.BlockStart()+64) {
		t.Fatalf("stream block %d does not contain value %d", s.BlockStart(), gotV)
	}
}

func TestSeekLabelBasic(t *testing.T) {
	assertSeek(t, `{"a": 1, "b": 2}`, 0, "b")
	assertSeek(t, `{"a": 1, "b": 2}`, 0, "a")
	assertSeek(t, `{"a": 1, "b": 2}`, 2, "a") // past the first occurrence
	assertSeek(t, `{"a": 1}`, 0, "missing")
}

func TestSeekLabelRejectsStringValues(t *testing.T) {
	// "b" occurs as a string value and inside a string before the real key.
	assertSeek(t, `{"x": "b", "note": "say \"b\": here", "b": 42}`, 0, "b")
	// Only in-string occurrences: must not match.
	assertSeek(t, `{"x": "b", "y": ["b", "b"]}`, 0, "b")
}

func TestSeekLabelRejectsPrefixKeys(t *testing.T) {
	assertSeek(t, `{"bb": 1, "b": 2}`, 0, "b")
	assertSeek(t, `{"b2": 1}`, 0, "b")
}

func TestSeekLabelStartsPastClosingQuote(t *testing.T) {
	// Offset 3 is the closing quote of "x": the seeker's contract excludes
	// it, so the helper must start past it, where the engine would resume.
	// Started on the quote itself, the seeker takes it for an opening one
	// and misses key "ab" at 10.
	const doc = `{"x":"ab","ab":1}`
	if got := seekStart(doc, 3); got != 4 {
		t.Fatalf("seekStart(%q, 3) = %d, want 4 (past the closing quote)", doc, got)
	}
	assertSeek(t, doc, 3, "ab")
	if k, _, ok := seekLabel(NewStream([]byte(doc)), 4, "ab"); !ok || k != 10 {
		t.Fatalf("seek from 4 = (%d, %v), want key 10", k, ok)
	}
}

func TestSeekLabelWhitespaceBeforeColon(t *testing.T) {
	assertSeek(t, "{\"key\"  \n\t : 7}", 0, "key")
}

func TestSeekLabelAcrossBlocks(t *testing.T) {
	pad := strings.Repeat(" ", 60)
	assertSeek(t, `{`+pad+`"boundary": 1}`, 0, "boundary")
	// Key straddling the 64-byte edge.
	assertSeek(t, `{"filler": "`+strings.Repeat("x", 45)+`", "edgekey": 3}`, 0, "edgekey")
	// Colon and value in a later block.
	assertSeek(t, `{"k"`+strings.Repeat(" ", 100)+`:`+strings.Repeat(" ", 100)+`5}`, 0, "k")
}

func TestSeekLabelEscapedQuoteInKey(t *testing.T) {
	// Document key is x\" (escaped quote); searching for `x\` must not
	// match, since the "closing" quote is escaped.
	assertSeek(t, `{"x\"": 1}`, 0, `x\`)
	// Searching for the verbatim escaped spelling matches.
	assertSeek(t, `{"x\"y": 1}`, 0, `x\"y`)
}

func TestSeekLabelAtEndOfInput(t *testing.T) {
	assertSeek(t, `{"k"`, 0, "k")  // no colon, no value
	assertSeek(t, `{"k":`, 0, "k") // colon but no value
	assertSeek(t, `"k"`, 0, "k")   // bare string, no colon
}

func TestSeekLabelRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	alphabet := []byte(`{}[]"\,: ab1`)
	labels := []string{"a", "ab", "b1", `a\`}
	for trial := 0; trial < 600; trial++ {
		n := 1 + r.Intn(220)
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		assertSeek(t, string(data), r.Intn(n), labels[r.Intn(len(labels))])
	}
}

func TestSeekLabelRepeatedFinds(t *testing.T) {
	// Walk all occurrences the way the engine's head-skip loop does.
	doc := `{"a":1,"x":{"a":2},"a":3}`
	data := []byte(doc)
	s := NewStream(data)
	var keys []int
	from := 0
	for {
		k, v, ok := seekLabel(s, from, "a")
		if !ok {
			break
		}
		keys = append(keys, k)
		from = v + 1
	}
	want := []int{1, 12, 19}
	if len(keys) != len(want) {
		t.Fatalf("found keys at %v, want %v", keys, want)
	}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("found keys at %v, want %v", keys, want)
		}
	}
}

// seekWalk finds every key occurrence of label in the stream, resuming at
// each value's first byte as the engine's head-skip loop resumes at value
// boundaries, and reports the (key, value) offsets plus whether the
// document ended inside a string.
func seekWalk(s *Stream, label string) (found [][2]int, endInString bool) {
	n := NewNeedle([]byte(`"` + label + `"`))
	for from := 0; ; {
		k, v, ok := SeekLabelPattern(s, from, &n)
		if !ok {
			return found, s.SeekEndedInString()
		}
		found = append(found, [2]int{k, v})
		from = v
	}
}

// refSeekWalk is seekWalk's oracle, built on refSeekLabel and refQuoteScan.
func refSeekWalk(data []byte, label string) (found [][2]int, endInString bool) {
	for from := 0; ; {
		k, v, ok := refSeekLabel(data, from, []byte(label))
		if !ok {
			break
		}
		found = append(found, [2]int{k, v})
		from = v
	}
	if len(data) > 0 {
		_, inString := refQuoteScan(data)
		endInString = inString[len(data)-1]
	}
	return found, endInString
}

func equalFinds(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzSeekLabel holds the seeker to its scalar oracle on arbitrary bytes
// and labels: every occurrence, walked the way the engine walks them, over
// the in-memory input and over window-bounded inputs of 64, 256 and 4096
// bytes fed in torn reads. A window violation (*input.Error) is the one
// sanctioned divergence: a label too long for a tiny window defeats it by
// design. Labels are cut to 40 bytes; seeds put keys across the 64-byte
// block grid and the seeker's chunk edges.
func FuzzSeekLabel(f *testing.F) {
	f.Add([]byte(`{"x":"ab","ab":1}`), "ab")
	f.Add([]byte(`{"x": "b", "note": "say \"b\": here", "b": 42}`), "b")
	f.Add([]byte(`{"x\"y": 1, "k\\": {"x\"y": "x\"y"}}`), `x\"y`)
	f.Add([]byte(`{"a:b": 1, "é": {"a:b": 2}}`), "é")
	f.Add([]byte(`{"": 1, "e": {"": 2}}`), "")
	for _, pad := range []int{20, 57, 60, 66, 120, 250, 500} {
		doc := `{"p":"` + strings.Repeat("x", pad) + `","needle":[1],"q":"\"needle\": no",` +
			strings.Repeat(" ", pad/3) + `"needle":{"needle":"needle"}}`
		f.Add([]byte(doc), "needle")
	}
	f.Add([]byte(`{"`+strings.Repeat("k", 40)+`":1,"pad":"`+strings.Repeat("y", 300)+`","`+strings.Repeat("k", 40)+`":2}`),
		strings.Repeat("k", 40))
	f.Fuzz(func(t *testing.T, data []byte, label string) {
		if len(label) > 40 {
			label = label[:40]
		}
		want, wantEnd := refSeekWalk(data, label)
		got, gotEnd := seekWalk(NewStream(data), label)
		if !equalFinds(got, want) || (len(got) == len(want) && gotEnd != wantEnd) {
			t.Fatalf("label %q on %q:\n  seeker: %v end-in-string=%v\n  oracle: %v end-in-string=%v",
				label, data, got, gotEnd, want, wantEnd)
		}
		for _, window := range []int{64, 256, 4096} {
			var bufGot [][2]int
			var bufEnd bool
			err := input.Guard(func() error {
				in := input.NewBuffered(&chunkReader{data: data, n: 7}, window)
				bufGot, bufEnd = seekWalk(NewStreamInput(in), label)
				return nil
			})
			var winErr *input.Error
			switch {
			case errors.As(err, &winErr):
			case err != nil:
				t.Fatalf("label %q window %d on %q: %v", label, window, data, err)
			case !equalFinds(bufGot, want) || bufEnd != wantEnd:
				t.Fatalf("label %q window %d on %q:\n  buffered: %v end-in-string=%v\n  oracle: %v end-in-string=%v",
					label, window, data, bufGot, bufEnd, want, wantEnd)
			}
		}
	})
}

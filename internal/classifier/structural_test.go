package classifier

import (
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/input"
	"rsonpath/internal/simd"
)

// collect drains the classifier, returning positions and characters.
func collect(c *Structural) (pos []int, chars []byte) {
	for {
		p, ch, ok := c.Next()
		if !ok {
			return pos, chars
		}
		pos = append(pos, p)
		chars = append(chars, ch)
	}
}

// refStructural returns positions of enabled structural characters outside
// strings, per the scalar oracle.
func refStructural(data []byte, commas, colons bool) (pos []int, chars []byte) {
	_, inString := refQuoteScan(data)
	for i, b := range data {
		if inString[i] {
			continue
		}
		switch b {
		case '{', '}', '[', ']':
		case ',':
			if !commas {
				continue
			}
		case ':':
			if !colons {
				continue
			}
		default:
			continue
		}
		pos = append(pos, i)
		chars = append(chars, b)
	}
	return pos, chars
}

func assertStructural(t *testing.T, data string, commas, colons bool) {
	t.Helper()
	c := NewStructural(NewStream([]byte(data)), 0)
	c.SetCommas(commas)
	c.SetColons(colons)
	gotPos, gotCh := collect(&c)
	wantPos, wantCh := refStructural([]byte(data), commas, colons)
	if len(gotPos) != len(wantPos) {
		t.Fatalf("%q commas=%v colons=%v: got %d events %v, want %d %v",
			data, commas, colons, len(gotPos), gotPos, len(wantPos), wantPos)
	}
	for i := range gotPos {
		if gotPos[i] != wantPos[i] || gotCh[i] != wantCh[i] {
			t.Fatalf("%q event %d: got (%d,%q) want (%d,%q)",
				data, i, gotPos[i], gotCh[i], wantPos[i], wantCh[i])
		}
	}
}

func TestStructuralDefaultSkipsCommasColons(t *testing.T) {
	assertStructural(t, `{"a": 1, "b": [2, 3]}`, false, false)
}

func TestStructuralAllEnabled(t *testing.T) {
	assertStructural(t, `{"a": 1, "b": [2, 3]}`, true, true)
	assertStructural(t, `{"a": 1, "b": [2, 3]}`, true, false)
	assertStructural(t, `{"a": 1, "b": [2, 3]}`, false, true)
}

func TestStructuralIgnoresStrings(t *testing.T) {
	assertStructural(t, `{"tricky": "br{ck[t]s, and: commas"}`, true, true)
	assertStructural(t, `{"esc\"aped": "{\"a\":[1,2]}"}`, true, true)
}

func TestStructuralRandomDocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	alphabet := []byte(`{}[]:," \ab123`)
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(200)
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		assertStructural(t, string(data), r.Intn(2) == 0, r.Intn(2) == 0)
	}
}

func TestStructuralMidStreamToggle(t *testing.T) {
	// Enable commas only after consuming the first few events: commas
	// before the toggle point must not appear; commas after must.
	data := `[1,2,[3,4],5,6]`
	c := NewStructural(NewStream([]byte(data)), 0)
	p, ch, ok := c.Next() // '[' at 0
	if !ok || ch != '[' || p != 0 {
		t.Fatalf("first event (%d,%q,%v)", p, ch, ok)
	}
	c.SetCommas(true)
	var got []int
	for {
		p, ch, ok := c.Next()
		if !ok {
			break
		}
		if ch == ',' {
			got = append(got, p)
		}
	}
	want := []int{2, 4, 7, 10, 12} // all commas outside [0]
	if len(got) != len(want) {
		t.Fatalf("comma positions %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("comma positions %v, want %v", got, want)
		}
	}
}

func TestStructuralToggleHidesConsumedRegion(t *testing.T) {
	// After consuming past position 6, enabling commas must not resurrect
	// the comma at position 2.
	data := `[1,{"x":[0]},3]`
	c := NewStructural(NewStream([]byte(data)), 0)
	for i := 0; i < 3; i++ { // '[' '{' '['
		if _, _, ok := c.Next(); !ok {
			t.Fatal("unexpected end")
		}
	}
	c.SetCommas(true)
	gotPos, _ := collect(&c)
	for _, p := range gotPos {
		if p <= 8 {
			t.Fatalf("event at consumed position %d returned after toggle", p)
		}
	}
}

func TestStructuralPeekDoesNotConsume(t *testing.T) {
	data := `{"a":[1]}`
	c := NewStructural(NewStream([]byte(data)), 0)
	p1, ch1, _ := c.Peek()
	p2, ch2, _ := c.Peek()
	if p1 != p2 || ch1 != ch2 {
		t.Fatal("repeated Peek disagrees")
	}
	p3, ch3, _ := c.Next()
	if p3 != p1 || ch3 != ch1 {
		t.Fatal("Next disagrees with Peek")
	}
}

func TestStructuralPeekAcrossBlocks(t *testing.T) {
	data := `[` + strings.Repeat(" ", 200) + `]`
	c := NewStructural(NewStream([]byte(data)), 0)
	c.Next() // '['
	p, ch, ok := c.Peek()
	if !ok || ch != ']' || p != 201 {
		t.Fatalf("peek across blocks: (%d,%q,%v)", p, ch, ok)
	}
	p, ch, ok = c.Next()
	if !ok || ch != ']' || p != 201 {
		t.Fatalf("next after far peek: (%d,%q,%v)", p, ch, ok)
	}
}

func TestStructuralResetFrom(t *testing.T) {
	data := `{"a":{"b":1}}`
	s := NewStream([]byte(data))
	c := NewStructural(s, 5) // start at the inner '{'
	p, ch, ok := c.Next()
	if !ok || ch != '{' || p != 5 {
		t.Fatalf("reset start: (%d,%q,%v)", p, ch, ok)
	}
}

func TestStructuralAtBlockEdges(t *testing.T) {
	// Structural characters exactly at positions 63, 64, 127, 128.
	var b strings.Builder
	b.WriteString(strings.Repeat(" ", 63))
	b.WriteString("{")                     // 63
	b.WriteString("[")                     // 64
	b.WriteString(strings.Repeat(" ", 62)) // 65..126
	b.WriteString("]")                     // 127
	b.WriteString("}")                     // 128
	assertStructural(t, b.String(), true, true)
}

// cursorModel is the scalar specification of the structural cursor:
// events are the enabled symbols outside strings at or after the
// consumption point cp. Next consumes past the event it returns. Peek
// consumes nothing, but when the next event lies in a later block than cp
// it moves cp to that block's start: the cursor steps over blocks holding
// nothing enabled, so a class toggled on later shows only from there on.
type cursorModel struct {
	data           []byte
	inString       []bool
	cp             int
	commas, colons bool
}

func (m *cursorModel) next() (int, bool) {
	for p := m.cp; p < len(m.data); p++ {
		if m.inString[p] {
			continue
		}
		switch m.data[p] {
		case '{', '}', '[', ']':
			return p, true
		case ',':
			if m.commas {
				return p, true
			}
		case ':':
			if m.colons {
				return p, true
			}
		}
	}
	return 0, false
}

// driveCursor replays ops against a cursor over s and against the model,
// and fails at the first divergence, or at a Next below the consumption
// point.
func driveCursor(t *testing.T, data, ops []byte, s *Stream, label string) {
	t.Helper()
	_, inString := refQuoteScan(data)
	m := &cursorModel{data: data, inString: inString}
	c := NewStructural(s, 0)
	for k, op := range ops {
		switch op % 8 {
		case 0, 1, 2:
			cp := m.cp
			want, wantOK := m.next()
			got, ch, ok := c.Next()
			if ok != wantOK || ok && (got != want || ch != data[want]) {
				t.Fatalf("%s op %d Next = (%d,%q,%v), model (%d,%v)", label, k, got, ch, ok, want, wantOK)
			}
			if !ok {
				return
			}
			if got < cp {
				t.Fatalf("%s op %d: Next returned %d below the consumption point %d", label, k, got, cp)
			}
			m.cp = got + 1
		case 3:
			want, wantOK := m.next()
			got, _, ok := c.Peek()
			if ok != wantOK || ok && got != want {
				t.Fatalf("%s op %d Peek = (%d,%v), model (%d,%v)", label, k, got, ok, want, wantOK)
			}
			if !ok {
				return
			}
			if blk := got - got%simd.BlockSize; blk > m.cp {
				m.cp = blk
			}
		case 4:
			m.commas = !m.commas
			c.SetCommas(m.commas)
		case 5:
			m.colons = !m.colons
			c.SetColons(m.colons)
		case 6:
			// Reset a little ahead, to a position outside any string, as
			// the engine resumes after a skip.
			to := m.cp + int(op/8)%70
			for to < len(data) && inString[to] {
				to++
			}
			if to > len(data) {
				to = len(data)
			}
			c.Reset(to)
			m.cp = to
		default:
			if got, want := c.Position(), m.cp; got < want {
				t.Fatalf("%s op %d: Position %d below the consumption point %d", label, k, got, want)
			}
		}
	}
}

// TestStructuralCursorModel holds the cursor to its scalar model under
// random interleavings of Next, Peek, toggles and Resets — in particular,
// Next never returns a symbol below the consumption point after
// SetColons(true) or SetCommas(true) — over an in-memory input, a buffered
// input with a one-block window, and whole-document planes.
func TestStructuralCursorModel(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	alphabet := []byte(`{}[]:,,::" \ab`)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, r.Intn(400))
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		ops := make([]byte, 120)
		r.Read(ops)
		driveCursor(t, data, ops, NewStream(data), "bytes")
		driveCursor(t, data, ops, NewStreamInput(input.NewBuffered(&chunkReader{data: data, n: 5}, simd.BlockSize)), "buffered")
		driveCursor(t, data, ops, NewStreamPlanes(input.NewBytes(data), BuildPlanes(data)), "planes")
	}
}

// TestStructuralToggleOnNeverRewinds pins the consumption rule on its own:
// a colon or comma before the point the cursor consumed up to stays gone
// when its class is switched on mid-block, on every input.
func TestStructuralToggleOnNeverRewinds(t *testing.T) {
	data := []byte(`{"a": [1, 2], "b": {"c": 3}, "d": [4, 5]}`)
	for _, set := range []func(c *Structural){
		func(c *Structural) { c.SetColons(true) },
		func(c *Structural) { c.SetCommas(true) },
	} {
		for label, s := range map[string]*Stream{
			"bytes":    NewStream(data),
			"buffered": NewStreamInput(input.NewBuffered(&chunkReader{data: data, n: 3}, simd.BlockSize)),
			"planes":   NewStreamPlanes(input.NewBytes(data), BuildPlanes(data)),
		} {
			c := NewStructural(s, 0)
			for i := 0; i < 3; i++ { // '{' '[' ']'
				c.Next()
			}
			consumed := c.Position() // just past the ']' at 11
			set(&c)
			for {
				p, _, ok := c.Next()
				if !ok {
					break
				}
				if p < consumed {
					t.Fatalf("%s: Next returned %d below the consumption point %d", label, p, consumed)
				}
			}
		}
	}
}

// TestKeyQuotes holds KeyQuotes to the scalar quote oracle: for every
// colon, the two unescaped quotes closest below it, or ok=false when the
// window does not reach back to both.
func TestKeyQuotes(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	alphabet := []byte(`"\: ab`)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, r.Intn(300))
		for i := range data {
			data[i] = alphabet[r.Intn(len(alphabet))]
		}
		quotes, _ := refQuoteScan(data)
		s := NewStreamPlanes(input.NewBytes(data), BuildPlanes(data))
		for colon, b := range data {
			if b != ':' {
				continue
			}
			var below []int
			for p := colon - 1; p >= 0 && len(below) < 2; p-- {
				if quotes[p] {
					below = append(below, p)
				}
			}
			open, closing, ok := s.KeyQuotes(colon)
			if ok != (len(below) == 2) || ok && (closing != below[0] || open != below[1]) {
				t.Fatalf("%q colon %d: KeyQuotes = (%d,%d,%v), oracle %v", data, colon, open, closing, ok, below)
			}
		}
	}
}

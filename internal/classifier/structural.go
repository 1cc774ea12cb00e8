package classifier

import (
	"math/bits"

	"rsonpath/internal/simd"
)

// Structural is the structural classifier as a cursor over the stream's
// window (§4.3): the engine's iterator. By default it recognises only the
// opening and closing characters, which amounts to skipping leaves (§3.3);
// commas and colons are toggled on demand.
//
// The cursor holds one word, the current block's enabled symbols that are
// not consumed yet, and reads the plane words it needs straight from the
// window when it enters a block: the brackets always, the commas and the
// colons only while they are toggled on. An event costs a trailing-zero
// count and a clear of the lowest bit. The cursor re-reads the window only
// when it steps past the current block (classifying the next window first
// when it steps past the window's last block) and on Reset, which is how
// it resumes after a depth skip, a label seek or a tail seek moved through
// the window.
//
// Toggling implementation: the paper XORs the upper lookup table and
// reclassifies the block. Here the window already holds one in-string-
// masked word per symbol class and block (the brackets, the commas, the
// colons), so a toggle ORs the class's word, from the consumption point
// on, into the cursor's word, or clears it out. The visible semantics —
// newly enabled characters appear only from the consumption point onward —
// are identical (see DESIGN.md).
//
// Consumption model: bits strictly below consumed (relative to the current
// block) are gone for good; Next advances consumed past the bit it returns;
// Peek does not, though moving on to a later block (which Peek and Ready
// may do) puts the consumption point at that block's start.
type Structural struct {
	s        *Stream
	word     uint64 // the current block's enabled symbols from consumed on
	base     int    // absolute offset of the current block
	i        int    // the current block's word in the window planes
	consumed int    // relative index below which the current block is consumed

	// buf holds the bytes events are read from, buf[0] at absolute offset
	// bufBase: the whole document over an in-memory input, else the copy
	// of the current block the input served when the cursor entered it.
	buf     []byte
	bufBase int

	commas bool
	colons bool
}

// NewStructural creates a structural classifier over s, starting at
// absolute offset from, which must not precede the stream's window. The
// cursor is a value, so that a run can hold it in its own state.
func NewStructural(s *Stream, from int) Structural {
	c := Structural{s: s, buf: s.data}
	c.Reset(from)
	return c
}

// Reset repositions the classifier so the next structural character
// returned is at absolute offset from or later. This is the resume step of
// the pipeline (§4.5), used after the depth classifier or a label seeker
// has run through the window; from must not precede the window.
func (c *Structural) Reset(from int) {
	s := c.s
	idx := from / simd.BlockSize
	if (s.pending || idx >= s.hi) && !s.reach(idx) {
		// Past the end of input: nothing is left to return.
		c.word, c.i, c.base = 0, len(s.w.Opens), s.hi*simd.BlockSize
		return
	}
	c.enter(idx - s.lo)
	c.consumed = from % simd.BlockSize
	c.word &^= simd.BitsBelow(c.consumed)
}

// enter makes word i of the window planes the current block.
func (c *Structural) enter(i int) {
	s := c.s
	w := &s.w
	m := w.Opens[i] | w.Closes[i]
	if c.commas {
		m |= w.Commas[i]
	}
	if c.colons {
		m |= w.Colons[i]
	}
	c.word, c.i, c.consumed = m, i, 0
	c.base = (s.lo + i) * simd.BlockSize
	if s.data == nil {
		b, _ := s.in.Block(s.lo + i)
		c.buf, c.bufBase = b[:], c.base
	}
}

// Position returns the absolute offset from which the next scan proceeds:
// everything before it has been consumed or skipped.
func (c *Structural) Position() int {
	return c.base + c.consumed
}

// SetCommas toggles comma recognition (§4.3).
func (c *Structural) SetCommas(on bool) {
	if on != c.commas {
		c.commas = on
		c.toggle(c.s.w.Commas, on)
	}
}

// SetColons toggles colon recognition (§4.3).
func (c *Structural) SetColons(on bool) {
	if on != c.colons {
		c.colons = on
		c.toggle(c.s.w.Colons, on)
	}
}

// toggle adds the current block's word of a symbol plane to the cursor's
// word from the consumption point on, or removes it.
func (c *Structural) toggle(plane []uint64, on bool) {
	if uint(c.i) >= uint(len(plane)) {
		return // past the end of input
	}
	if on {
		c.word |= plane[c.i] &^ simd.BitsBelow(c.consumed)
	} else {
		c.word &^= plane[c.i]
	}
}

// Next returns the next enabled structural character and consumes it.
// ok is false at end of input.
func (c *Structural) Next() (pos int, ch byte, ok bool) {
	if !c.Ready() {
		return 0, 0, false
	}
	pos, ch = c.Take()
	return pos, ch, true
}

// Peek returns the next enabled structural character without consuming it.
// ok is false at end of input.
func (c *Structural) Peek() (pos int, ch byte, ok bool) {
	if !c.Ready() {
		return 0, 0, false
	}
	pos, ch = c.Look()
	return pos, ch, true
}

// Ready moves the cursor on to the next block that holds an enabled
// symbol, if the current block holds none, and reports whether there is
// one; false means the end of input. Moving on is safe for a peek too,
// because the blocks passed hold nothing enabled.
//
// Next is Ready then Take, and Peek is Ready then Look. A caller whose
// loop must not pay a call per event uses the three steps directly: Ready
// costs a call only when it moves to another block, and Take and Look
// inline.
func (c *Structural) Ready() bool {
	return c.word != 0 || c.refresh()
}

// Take consumes the next enabled symbol of the current block and returns
// its position and byte. Ready must have reported true since the last
// Take, Reset or toggle.
func (c *Structural) Take() (pos int, ch byte) {
	bit := bits.TrailingZeros64(c.word)
	c.word &= c.word - 1
	c.consumed = bit + 1
	pos = c.base + bit
	return pos, c.buf[pos-c.bufBase]
}

// Look returns what Take would return, without consuming it.
func (c *Structural) Look() (pos int, ch byte) {
	pos = c.base + bits.TrailingZeros64(c.word)
	return pos, c.buf[pos-c.bufBase]
}

// refresh moves on to the next block that holds an enabled symbol,
// classifying the next window when the current one ends. It reports false
// at the end of input.
func (c *Structural) refresh() bool {
	for c.word == 0 {
		i := c.i + 1
		if i >= len(c.s.w.Opens) {
			idx := c.base/simd.BlockSize + 1
			if !c.s.cover(idx) {
				return false
			}
			i = idx - c.s.lo
		}
		c.enter(i)
	}
	return true
}

package classifier

import "rsonpath/internal/simd"

// Structural is the structural classifier plus the within-block cursor that
// backs the engine's iterator (§4.3). By default it recognises only the
// opening and closing characters, which amounts to skipping leaves (§3.3);
// commas and colons are toggled on demand.
//
// Toggling implementation: the paper XORs the upper lookup table and
// reclassifies the block. Here the stream's planes already hold one
// in-string-masked word per symbol class and block (the brackets, the
// commas, the colons), so a toggle merely changes which words are OR-ed
// together. The visible semantics — newly enabled characters appear only
// from the consumption point onward — are identical (see DESIGN.md).
//
// Consumption model: bits strictly below consumed (relative to the current
// block) are gone for good; Next advances consumed past the bit it returns;
// Peek does not.
type Structural struct {
	s        *Stream
	consumed int // relative index below which the current block is consumed
	commas   bool
	colons   bool
}

// NewStructural creates a structural classifier over s, starting at
// absolute offset from. The stream's current block must contain from (or
// precede it by at most the consumed prefix).
func NewStructural(s *Stream, from int) *Structural {
	c := &Structural{s: s}
	c.Reset(from)
	return c
}

// active returns the enabled-symbol mask of the current block.
func (c *Structural) active() uint64 {
	m := c.s.braces
	if c.commas {
		m |= c.s.commaM
	}
	if c.colons {
		m |= c.s.colonM
	}
	return m
}

// Reset repositions the classifier so the next structural character
// returned is at absolute offset from or later. This is the resume step of
// the pipeline (§4.5), used after the depth classifier or the label seeker
// has moved the stream.
func (c *Structural) Reset(from int) {
	c.s.settle()
	// Move (sequentially, keeping the quote state exact) to the block
	// containing from; a stale within-block cursor would otherwise replay
	// events between the block start and from.
	if !c.s.exhausted && c.s.BlockStart()+simd.BlockSize <= from {
		c.s.moveTo(from / simd.BlockSize)
	}
	rel := from - c.s.BlockStart()
	if rel < 0 {
		rel = 0
	}
	if rel > simd.BlockSize {
		rel = simd.BlockSize
	}
	c.consumed = rel
}

// Position returns the absolute offset from which the next scan proceeds:
// everything before it has been consumed or skipped.
func (c *Structural) Position() int {
	return c.s.BlockStart() + c.consumed
}

// Commas reports whether comma events are currently enabled.
func (c *Structural) Commas() bool { return c.commas }

// Colons reports whether colon events are currently enabled.
func (c *Structural) Colons() bool { return c.colons }

// SetCommas toggles comma recognition (§4.3).
func (c *Structural) SetCommas(on bool) { c.commas = on }

// SetColons toggles colon recognition (§4.3).
func (c *Structural) SetColons(on bool) { c.colons = on }

// Next returns the next enabled structural character and consumes it.
// ok is false at end of input.
func (c *Structural) Next() (pos int, ch byte, ok bool) {
	rel, ch, ok := c.scan()
	if !ok {
		return 0, 0, false
	}
	c.consumed = rel + 1
	return c.s.BlockStart() + rel, ch, true
}

// Peek returns the next enabled structural character without consuming it.
// Peeking may advance the stream to later blocks when the current block is
// exhausted; this is safe because exhausted blocks hold nothing enabled.
func (c *Structural) Peek() (pos int, ch byte, ok bool) {
	rel, ch, ok := c.scan()
	if !ok {
		return 0, 0, false
	}
	return c.s.BlockStart() + rel, ch, true
}

// scan locates the next enabled bit at or after the consumption point,
// crossing blocks as needed.
func (c *Structural) scan() (rel int, ch byte, ok bool) {
	c.s.settle()
	for {
		m := c.active() &^ simd.BitsBelow(c.consumed)
		if m != 0 {
			bit := simd.TrailingZeros(m)
			return bit, c.s.block[bit], true
		}
		if !c.s.Advance() {
			return 0, 0, false
		}
		c.consumed = 0
	}
}

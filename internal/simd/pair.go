package simd

// This file holds the packed-pair substring prefilter behind the head-skip
// seeker (DESIGN.md §3.4 substitution): W. Muła's "generic SIMD" substring
// search, the filter memchr's memmem runs. Two bytes of the needle at
// distinct offsets are compared at every anchor — the offset where the
// needle would start — one vector of anchors at a time, and the two
// compare masks are ANDed; only anchors where both bytes match are handed
// back for verification. Chosen by rarity, the two bytes keep the
// candidate rate near the needle's true occurrence rate, where a filter on
// the needle's first byte (a quote, for a quoted label) fires at every
// string.

// PairCandidates reports the anchors a of hay, 0 <= a <= len(hay)-len(needle),
// at which hay[a+i1] == needle[i1] and hay[a+i2] == needle[i2]. Anchors are
// grouped into chunks of BlockSize starting at anchor 0; it returns the
// first chunk holding a candidate as the chunk's first anchor base and its
// mask, bit j standing for anchor base+j. Bits past the last anchor are
// clear. With no candidate left, mask is 0 and base is the anchor count.
//
// The caller walks the mask's bits and verifies each candidate, then calls
// again past the chunk: a whole chunk of false candidates costs one call,
// not one re-entry per candidate. i1 and i2 must index needle; they may be
// equal, though a filter wants them distinct.
func PairCandidates(hay, needle []byte, i1, i2 int) (base int, mask uint64) {
	return active.Load().pairCandidates(hay, needle, i1, i2)
}

// pairFlags returns, in the high bit of each byte, whether the bytes of w1
// and w2 equal the broadcast targets c1 and c2 respectively (the exact
// has-zero-byte test of movemaskZero, without the gather).
func pairFlags(w1, w2, c1, c2 uint64) uint64 {
	x1, x2 := w1^c1, w2^c2
	t1 := (x1 | highBits) - lowBytes
	t2 := (x2 | highBits) - lowBytes
	return ^(t1 | x1) & ^(t2 | x2) & highBits
}

// pairCandidatesSWAR is the SWAR backend's pair filter and the reference
// every hardware backend is fuzzed against: eight anchors per word, a
// chunk's eight flag words gathered into its mask by one 8×8 bit transpose
// (as rawMasksSWAR does) only when some flag is set.
func pairCandidatesSWAR(hay, needle []byte, i1, i2 int) (int, uint64) {
	anchors := len(hay) - len(needle) + 1
	if anchors <= 0 {
		return 0, 0
	}
	c1 := uint64(needle[i1]) * lowBytes
	c2 := uint64(needle[i2]) * lowBytes
	full := anchors &^ (BlockSize - 1)
	for base := 0; base < full; base += BlockSize {
		// Anchor base+63 is a real anchor, so both 64-byte windows lie
		// within hay: the conversions cannot fail.
		p1 := (*Block)(hay[base+i1:])
		p2 := (*Block)(hay[base+i2:])
		f0 := pairFlags(word(p1, 0), word(p2, 0), c1, c2)
		f1 := pairFlags(word(p1, 8), word(p2, 8), c1, c2)
		f2 := pairFlags(word(p1, 16), word(p2, 16), c1, c2)
		f3 := pairFlags(word(p1, 24), word(p2, 24), c1, c2)
		f4 := pairFlags(word(p1, 32), word(p2, 32), c1, c2)
		f5 := pairFlags(word(p1, 40), word(p2, 40), c1, c2)
		f6 := pairFlags(word(p1, 48), word(p2, 48), c1, c2)
		f7 := pairFlags(word(p1, 56), word(p2, 56), c1, c2)
		if f0|f1|f2|f3|f4|f5|f6|f7 != 0 {
			return base, transpose8(f0>>7 | f1>>6 | f2>>5 | f3>>4 | f4>>3 | f5>>2 | f6>>1 | f7)
		}
	}
	return pairTail(hay, needle, i1, i2, full, anchors)
}

// pairTail filters the final partial chunk, anchors base..anchors-1, one
// anchor at a time. Every backend shares it: a vector load there would
// read past the haystack.
func pairTail(hay, needle []byte, i1, i2, base, anchors int) (int, uint64) {
	b1, b2 := needle[i1], needle[i2]
	var mask uint64
	for a := base; a < anchors; a++ {
		if hay[a+i1] == b1 && hay[a+i2] == b2 {
			mask |= 1 << uint(a-base)
		}
	}
	if mask == 0 {
		return anchors, 0
	}
	return base, mask
}

package simd

import "math/bits"

// This file holds the batched classification kernels: instead of classifying
// one 64-byte block per call through several single-purpose passes
// (CmpEq8Pair for quotes, BracketMasks, CmpEq8 for commas and colons), a
// batch kernel sweeps a contiguous run of blocks in one tight loop and
// derives every raw mask from a single load of each 8-byte word. The fused
// sweep reads the document bytes exactly once and amortizes the per-call
// dispatch over the whole run, the way simdjson's stage-1 builds its
// structural index in one pass over the input.
//
// The kernels emit *raw* masks only — escape handling and the in-string
// parity are inherently sequential across blocks and are layered on top by
// the classifier, which runs them over whole documents (BuildPlanes) and
// over every cold stream's windows alike.

// Broadcast comparison targets for the raw sweep.
const (
	batchBackslash = uint64('\\') * lowBytes
	batchQuote     = uint64('"') * lowBytes
	batchOpen      = uint64('{') * lowBytes // after bit-5 folding: '{' and '['
	batchClose     = uint64('}') * lowBytes // after bit-5 folding: '}' and ']'
	batchComma     = uint64(',') * lowBytes
	batchColon     = uint64(':') * lowBytes
	bit5Fold       = 0x2020202020202020 // folds '['/']' onto '{'/'}' (see BracketMasks)
)

// low7Bits is 0x7F in every byte: the zero-detection addend of wordFlags.
const low7Bits = 0x7F7F7F7F7F7F7F7F

// wordFlags returns the six targets' match flags for the eight bytes of w,
// each flag in the high bit of its byte. Every target is ASCII, so with the
// bytes' own high bits set aside, adding 0x7F to the XOR with a target sets
// a byte's high bit exactly when the byte differs from the target, with no
// carry into the next byte; bytes whose own high bit was set never match.
func wordFlags(w uint64) (backslash, quote, opens, closes, commas, colons uint64) {
	hi := w & highBits
	v := w &^ highBits
	f := v | bit5Fold // brackets compare bit-5-folded (see BracketMasks)
	backslash = ^((v ^ batchBackslash) + low7Bits | hi) & highBits
	quote = ^((v ^ batchQuote) + low7Bits | hi) & highBits
	opens = ^((f ^ batchOpen) + low7Bits | hi) & highBits
	closes = ^((f ^ batchClose) + low7Bits | hi) & highBits
	commas = ^((v ^ batchComma) + low7Bits | hi) & highBits
	colons = ^((v ^ batchColon) + low7Bits | hi) & highBits
	return
}

// transpose8 transposes the 8×8 bit matrix held in x, row r in byte r
// (Hacker's Delight, §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// rawMasksSWAR computes the six raw masks of one padded block in a single
// pass over its bytes: backslashes, double quotes (escaped or not), opening
// and closing brackets of both kinds, commas, and colons. Rather than
// gathering each word's flags into mask order separately, it packs a
// block's flags as an 8×8 bit matrix per target — word j's flags shifted
// down to bit j of every byte — and one transpose then yields the mask. It
// is the SWAR backend's kernel behind both RawMasks and BatchRawMasks, and
// the bit-identity reference every hardware backend is fuzzed against.
func rawMasksSWAR(b *Block) (backslash, quote, opens, closes, commas, colons uint64) {
	b0, q0, o0, c0, m0, l0 := wordFlags(word(b, 0))
	b1, q1, o1, c1, m1, l1 := wordFlags(word(b, 8))
	b2, q2, o2, c2, m2, l2 := wordFlags(word(b, 16))
	b3, q3, o3, c3, m3, l3 := wordFlags(word(b, 24))
	b4, q4, o4, c4, m4, l4 := wordFlags(word(b, 32))
	b5, q5, o5, c5, m5, l5 := wordFlags(word(b, 40))
	b6, q6, o6, c6, m6, l6 := wordFlags(word(b, 48))
	b7, q7, o7, c7, m7, l7 := wordFlags(word(b, 56))
	backslash = transpose8(b0>>7 | b1>>6 | b2>>5 | b3>>4 | b4>>3 | b5>>2 | b6>>1 | b7)
	quote = transpose8(q0>>7 | q1>>6 | q2>>5 | q3>>4 | q4>>3 | q5>>2 | q6>>1 | q7)
	opens = transpose8(o0>>7 | o1>>6 | o2>>5 | o3>>4 | o4>>3 | o5>>2 | o6>>1 | o7)
	closes = transpose8(c0>>7 | c1>>6 | c2>>5 | c3>>4 | c4>>3 | c5>>2 | c6>>1 | c7)
	commas = transpose8(m0>>7 | m1>>6 | m2>>5 | m3>>4 | m4>>3 | m5>>2 | m6>>1 | m7)
	colons = transpose8(l0>>7 | l1>>6 | l2>>5 | l3>>4 | l4>>3 | l5>>2 | l6>>1 | l7)
	return
}

// batchRawMasksSWAR sweeps every full 64-byte block of data, storing block
// i's raw masks at index i of each destination plane. It is the universal
// fallback behind the dispatched BatchRawMasks.
func batchRawMasksSWAR(data []byte, backslash, quote, opens, closes, commas, colons []uint64) int {
	n := len(data) / BlockSize
	// Reslice once so the stores below are provably in bounds.
	backslash = backslash[:n]
	quote = quote[:n]
	opens = opens[:n]
	closes = closes[:n]
	commas = commas[:n]
	colons = colons[:n]
	for i := range backslash {
		backslash[i], quote[i], opens[i], closes[i], commas[i], colons[i] =
			rawMasksSWAR((*Block)(data[i*BlockSize:]))
	}
	return n
}

// popcountWordsSWAR sums the population count of every word of p. Fallback
// behind the dispatched PopcountWords; bits.OnesCount64 compiles to a single
// POPCNT where available, so the fallback is already word-parallel.
func popcountWordsSWAR(p []uint64) int {
	total := 0
	for _, w := range p {
		total += bits.OnesCount64(w)
	}
	return total
}

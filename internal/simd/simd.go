// Package simd provides the word-parallel (SWAR — "SIMD Within A Register")
// primitives that substitute for the x86 vector instructions used by the
// paper "Supporting Descendants in SIMD-Accelerated JSONPath" (ASPLOS 2023).
//
// The unit of work is a 64-byte Block, mirroring an AVX-512 register (or a
// pair of AVX2 registers) in the original. Every classifier in
// internal/classifier consumes Blocks and produces 64-bit bitmasks, exactly
// like the movemask outputs the paper's pipeline operates on. Bit i of a
// mask corresponds to byte i of the block; bit 0 is the first byte
// (little-endian bit order, matching x86 movemask semantics).
//
// The mapping from the paper's instruction vocabulary:
//
//	cmpeq_epi8 + movemask  ->  CmpEq8 (XOR + has-zero trick + multiply gather)
//	shuffle_epi8 lookups   ->  NibbleEq / NibbleOr (byte-wise shuffle semantics)
//	clmul prefix-xor       ->  PrefixXor (shift-XOR cascade)
//	popcnt / tzcnt         ->  math/bits
package simd

import (
	"encoding/binary"
	"math/bits"
)

// BlockSize is the number of bytes classified at a time. Each classified
// block yields one 64-bit mask.
const BlockSize = 64

// Block is one unit of classification input. Inputs shorter than a full
// block are padded; see LoadBlock.
type Block = [BlockSize]byte

// Word-parallel constants for the has-zero-byte trick.
const (
	lowBytes  = 0x0101010101010101 // 0x01 in every byte
	highBits  = 0x8080808080808080 // 0x80 in every byte
	gatherMul = 0x0102040810204080 // gathers per-byte LSBs into the top byte
)

// LoadBlock copies up to BlockSize bytes of src into dst and pads the
// remainder with pad. It returns the number of real bytes loaded. Padding
// with a non-structural, non-quote byte (conventionally ' ') keeps padded
// tails invisible to every classifier.
func LoadBlock(dst *Block, src []byte, pad byte) int {
	n := copy(dst[:], src)
	for i := n; i < BlockSize; i++ {
		dst[i] = pad
	}
	return n
}

// word loads 8 little-endian bytes as a uint64; on little-endian targets
// this compiles to a single load.
func word(b *Block, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i : i+8])
}

// movemaskZero returns a bitmask of the bytes of w that are zero: bit j is
// set iff byte j of w is 0x00. This is the movemask(cmpeq(x, 0)) idiom.
func movemaskZero(w uint64) uint64 {
	// Exact has-zero-byte trick. Setting every high bit before the per-byte
	// subtraction confines borrows within bytes, so unlike the classic
	// (w-lo)&^w&hi form this has no false positives next to zero bytes: the
	// high bit of a byte of t|w is clear iff that byte of w is 0x00.
	t := (w | highBits) - lowBytes
	m := ^(t | w) & highBits
	// Gather the eight 0x80 flags into a contiguous byte. The multiplier
	// places each flag at a distinct bit of the top byte with no carries.
	return ((m >> 7) * gatherMul) >> 56
}

// CmpEq8 returns the bitmask of positions in b whose byte equals c. It is
// the SWAR equivalent of movemask(cmpeq_epi8(b, broadcast(c))).
func CmpEq8(b *Block, c byte) uint64 {
	bc := uint64(c) * lowBytes
	var mask uint64
	for i := 0; i < BlockSize; i += 8 {
		mask |= movemaskZero(word(b, i)^bc) << uint(i)
	}
	return mask
}

// CmpEq8Pair returns CmpEq8 masks for two target bytes in one pass. The
// depth classifier uses this to mark opening and closing characters
// simultaneously (paper §4.4: "two cmpeq instructions").
func CmpEq8Pair(b *Block, c1, c2 byte) (m1, m2 uint64) {
	bc1 := uint64(c1) * lowBytes
	bc2 := uint64(c2) * lowBytes
	for i := 0; i < BlockSize; i += 8 {
		w := word(b, i)
		m1 |= movemaskZero(w^bc1) << uint(i)
		m2 |= movemaskZero(w^bc2) << uint(i)
	}
	return m1, m2
}

// BracketMasks returns the bitmasks of all opening brackets ('{' and '[')
// and all closing brackets ('}' and ']') in one pass: the two characters of
// each kind differ only in bit 5 (0x7B/0x5B and 0x7D/0x5D), so OR-ing 0x20
// into every byte folds them onto a single comparison target, with no other
// byte mapping there.
func BracketMasks(b *Block) (opens, closes uint64) {
	const bit5 = 0x2020202020202020
	openT := uint64('{') * lowBytes
	closeT := uint64('}') * lowBytes
	for i := 0; i < BlockSize; i += 8 {
		w := word(b, i) | bit5
		opens |= movemaskZero(w^openT) << uint(i)
		closes |= movemaskZero(w^closeT) << uint(i)
	}
	return opens, closes
}

// NibbleTable is a 16-entry lookup table, the operand of the paper's
// shuffle_epi8-based classification (§4.1).
type NibbleTable [16]byte

// NibbleEq classifies b with the non-overlapping-groups method of §4.1:
// bit i is set iff utab[b[i]>>4] == ltab[b[i]&0xF]. This emulates
//
//	cmpeq_epi8(shuffle_epi8(utab, srli4(b)), shuffle_epi8(ltab, b))
//
// byte by byte. Construct tables with classifier/raw.go builders; the
// sentinel values 0xFE (upper) and 0xFF (lower) never compare equal.
func NibbleEq(b *Block, utab, ltab *NibbleTable) uint64 {
	var mask uint64
	for i := 0; i < BlockSize; i++ {
		if utab[b[i]>>4] == ltab[b[i]&0x0F] {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// NibbleOr classifies b with the few-groups method of §4.1: bit i is set iff
// utab[b[i]>>4] | ltab[b[i]&0xF] == 0xFF. This emulates
//
//	cmpeq_epi8(or(shuffle_epi8(utab, srli4(b)), shuffle_epi8(ltab, b)), ALL_ONES)
func NibbleOr(b *Block, utab, ltab *NibbleTable) uint64 {
	var mask uint64
	for i := 0; i < BlockSize; i++ {
		if utab[b[i]>>4]|ltab[b[i]&0x0F] == 0xFF {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// NibbleOr2 classifies b with the general-case method of §4.1 (two few-group
// classifications ORed together).
func NibbleOr2(b *Block, utab1, ltab1, utab2, ltab2 *NibbleTable) uint64 {
	var mask uint64
	for i := 0; i < BlockSize; i++ {
		u, l := b[i]>>4, b[i]&0x0F
		if utab1[u]|ltab1[l] == 0xFF || utab2[u]|ltab2[l] == 0xFF {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// PrefixXor computes, for every bit position i, the XOR of bits 0..i of x.
// It substitutes for the carry-less multiplication by an all-ones vector the
// paper uses to turn unescaped-quote masks into in-string masks (§4.2): the
// result has bit i set iff an odd number of quote bits occur at or below i.
func PrefixXor(x uint64) uint64 {
	x ^= x << 1
	x ^= x << 2
	x ^= x << 4
	x ^= x << 8
	x ^= x << 16
	x ^= x << 32
	return x
}

// Popcount returns the number of set bits. Thin alias so classifier code
// reads like the paper's pseudocode.
func Popcount(x uint64) int { return bits.OnesCount64(x) }

// TrailingZeros returns the index of the lowest set bit (64 if x == 0).
func TrailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// ClearLowest clears the lowest set bit of x, the iterator's step operation.
func ClearLowest(x uint64) uint64 { return x & (x - 1) }

// BitsBelow returns a mask of all bits strictly below position i (i in
// 0..64). The depth classifier uses it to count openings preceding a
// closing character within a block.
func BitsBelow(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(i)) - 1
}

// Package classifier implements the paper's vectorised classification
// pipeline (§4) on top of the kernels in internal/simd: the quote
// classifier (§4.2), the structural classifier with comma/colon toggling
// (§4.1, §4.3), the depth classifier used for skipping (§4.4), the
// skip-to-label seeker (§3.3 "skipping to a label"), the general raw
// classification method (§4.1), and the multi-classifier pipeline that ties
// them together (§4.5).
//
// There is one classification path. The dispatched six-mask sweep
// (simd.BatchRawMasks, AVX2 where the CPU has it) followed by the
// sequential quote carry turns a run of blocks into mask planes — one word
// per block for quotes, in-string positions, brackets, commas and colons
// (classify). BuildPlanes runs it over a whole document once; a cold Stream
// runs it over lazily filled, growing windows of blocks, so every run
// classifies with the same kernels whether or not the document was indexed.
//
// All classifiers operate on a shared Stream, which plays the role of the
// paper's always-on core quote classifier: it carries the escape and
// in-string state from window to window, and every higher-level classifier
// reads plane words from it. Switching between the structural and depth
// classifiers therefore needs no copying — they borrow the Stream exactly as
// the paper's stop and resume methods hand over the quote classifier's
// internal structures.
package classifier

import "rsonpath/internal/simd"

const (
	evenBits = 0x5555555555555555 // bits 0, 2, 4, ...
	oddBits  = ^uint64(evenBits)
)

// quoteState carries the quote classifier's cross-block state (§4.2): "two
// bits of information: whether the previous block's last character was an
// unescaped backslash and whether the last block ended while still within
// quotes".
type quoteState struct {
	prevEscaped  uint64 // 0 or 1: first char of next block is escaped
	prevInString uint64 // 0 or ^0: next block starts inside a string
}

// findEscaped marks characters that are escaped by a backslash, using
// add-carry propagation across backslash runs: a character is escaped iff
// it is preceded by an odd-length run of backslashes. This is the
// bit-parallel algorithm of Langdale & Lemire adopted by the paper.
func (q *quoteState) findEscaped(backslash uint64) uint64 {
	if backslash == 0 {
		escaped := q.prevEscaped
		q.prevEscaped = 0
		return escaped
	}
	// A backslash that is itself escaped does not escape anything.
	backslash &^= q.prevEscaped
	followsEscape := backslash<<1 | q.prevEscaped
	oddSequenceStarts := backslash & oddBits &^ followsEscape
	sequencesStartingOnEvenBits := oddSequenceStarts + backslash
	// Addition overflow means the block ends in a run whose parity escapes
	// the first character of the next block.
	if sequencesStartingOnEvenBits < oddSequenceStarts {
		q.prevEscaped = 1
	} else {
		q.prevEscaped = 0
	}
	invertMask := sequencesStartingOnEvenBits << 1
	return (evenBits ^ invertMask) & followsEscape
}

// classifyMasks computes the quote masks for one block from its raw
// backslash and quote masks and advances the state to the block's end. It
// returns:
//
//	quotes:   unescaped double-quote characters;
//	inString: positions inside a JSON string, including the opening quote
//	          and excluding the closing quote. An unescaped quote is thus an
//	          opening quote iff its inString bit is set.
func (q *quoteState) classifyMasks(backslash, rawQuotes uint64) (quotes, inString uint64) {
	quotes = rawQuotes &^ q.findEscaped(backslash)
	inString = simd.PrefixXor(quotes) ^ q.prevInString
	// The state after the last byte is the last bit of inString: replicate
	// it into a full-width carry with an arithmetic shift.
	q.prevInString = uint64(int64(inString) >> 63)
	return quotes, inString
}

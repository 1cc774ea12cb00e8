package classifier

import "rsonpath/internal/simd"

// SkipToClose is the depth classifier (§4.4). Starting at absolute offset
// from with relative depth 1 (one unmatched open character), it
// fast-forwards over the window to the closing character that brings the
// relative depth to 0 and returns its absolute position.
//
// The depth is tracked on the stream's bracket planes, both kinds at once:
// on well-formed input that reaches the same closer as the paper's scan of
// the open kind's pair, since subtrees of the other kind nest properly. The
// paper's block-skip heuristic applies: when a block holds fewer closers
// than the current depth, the depth cannot reach zero inside it, so the
// whole block is accounted for with two popcounts. The scan walks plane
// words, classifying further windows as it runs out, and moves nothing
// else: the caller resumes structural classification from the returned
// position with Structural.Reset.
//
// Over whole-document planes from BuildPlanes (an indexed document) the
// skip reads no plane word between its start and landing blocks: the
// planes carry a bracket-excess summary (excess.go), and every block and
// 64-block superblock whose minimum prefix excess cannot bring the depth
// to zero is passed with one addition. The result, verdicts included, is
// the plane walk's.
//
// ok is false when the input ends before the subtree closes (closePos is
// then -1), or when the closer reached is of the other kind than open
// (closePos is that closer) — both prove the document malformed. (Other
// mismatched interleavings may land elsewhere than a single-kind scan
// would, within the best-effort contract of DESIGN.md §9.)
//
// from may precede the window when the caller's cursor peeked past it into
// a later window: the cursor found no enabled symbol, so no bracket, in
// between, and the scan starts at the window.
func SkipToClose(s *Stream, from int, open byte) (closePos int, ok bool) {
	s.settle()
	idx, skip := from/simd.BlockSize, simd.BitsBelow(from%simd.BlockSize)
	if idx < s.lo {
		idx, skip = s.lo, 0
	}
	var pos int
	if s.w.blockEx != nil {
		pos = skipSummarized(&s.w, idx, skip)
	} else {
		pos = skipWalk(s, idx, skip)
	}
	if pos < 0 {
		return -1, false
	}
	return pos, s.byteAt(pos) == matchingClose(open)
}

// skipWalk is SkipToClose's plane walk, from bit skip of block idx on. It
// returns the closer's position, or -1 at the end of input.
func skipWalk(s *Stream, idx int, skip uint64) int {
	depth := 1
	for ; s.cover(idx); idx = s.hi {
		opens, closes := s.w.Opens, s.w.Closes
		for i := idx - s.lo; i < len(opens); i++ {
			om, cm := opens[i]&^skip, closes[i]&^skip
			skip = 0
			// Heuristic: depth cannot drop to zero if there are fewer
			// closers in the block than the current depth.
			if simd.Popcount(cm) < depth {
				depth += simd.Popcount(om) - simd.Popcount(cm)
				continue
			}
			// Walk the closers in order, adding the openers that precede
			// each.
			accounted := uint64(0)
			for ; cm != 0; cm = simd.ClearLowest(cm) {
				bit := simd.TrailingZeros(cm)
				below := simd.BitsBelow(bit)
				depth += simd.Popcount(om & below &^ accounted)
				accounted = below | 1<<uint(bit)
				if depth--; depth == 0 {
					return (s.lo+i)*simd.BlockSize + bit
				}
			}
			depth += simd.Popcount(om &^ accounted)
		}
	}
	return -1
}

// ScanToClose is a standalone form of SkipToClose over an in-memory
// document, for callers that keep no Stream (value extraction, the ski
// baseline): it finds the closer matching an open character of the given
// kind, starting at absolute offset from with relative depth 1. from must
// lie outside any string (true for every position where a value can
// start), so a fresh quote state is valid. When ok is false, closePos is
// the mismatched closer, or len(data) when the document ends first.
func ScanToClose(data []byte, from int, open byte) (closePos int, ok bool) {
	s := NewStream(data[from:])
	p, ok := SkipToClose(s, 0, open)
	s.Release()
	if p < 0 {
		return len(data), false
	}
	return from + p, ok
}

// matchingClose maps an opening structural character to its closer.
func matchingClose(open byte) byte {
	if open == '{' {
		return '}'
	}
	return ']'
}

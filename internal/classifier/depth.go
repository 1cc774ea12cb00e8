package classifier

import "rsonpath/internal/simd"

// SkipToClose is the depth classifier (§4.4). Starting at absolute offset
// from with relative depth 1 (one unmatched open character), it
// fast-forwards the stream to the closing character that brings the
// relative depth to 0 and returns its absolute position.
//
// The depth is tracked on the stream's bracket planes, both kinds at once:
// on well-formed input that reaches the same closer as the paper's scan of
// the open kind's pair, since subtrees of the other kind nest properly. The
// paper's block-skip heuristic applies: when a block holds fewer closers
// than the current depth, the depth cannot reach zero inside it, so the
// whole block is accounted for with two popcounts. Skipped blocks are never
// loaded: the scan walks plane words, classifying further windows as it
// runs out, and only the landing block is materialized.
//
// Over whole-document planes from BuildPlanes (an indexed document) the
// skip reads no plane word between its start and landing blocks: the
// planes carry a bracket-excess summary (excess.go), and every block and
// 64-block superblock whose minimum prefix excess cannot bring the depth
// to zero is passed with one addition. The result, verdicts included, is
// the plane walk's.
//
// ok is false when the input ends before the subtree closes, or when the
// closer reached is of the other kind than open — both prove the document
// malformed. (Other mismatched interleavings may land elsewhere than a
// single-kind scan would, within the best-effort contract of DESIGN.md §9.)
// The stream is left on the block containing the returned position; the
// caller resumes structural classification with Structural.Reset.
func SkipToClose(s *Stream, from int, open byte) (closePos int, ok bool) {
	if s.w.blockEx != nil {
		return skipSummarized(s, from, open)
	}
	// from may precede the current block when the caller's iterator peeked
	// ahead (everything at stake, in particular the sought closer, lies at
	// or after the current block), or lie in a later block; never look
	// before either.
	s.settle()
	idx := max(s.blockStart, from) / simd.BlockSize
	skip := simd.BitsBelow(max(from-idx*simd.BlockSize, 0))
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
					pos := (s.lo+i)*simd.BlockSize + bit
					s.JumpTo(pos)
					return pos, s.block[bit] == matchingClose(open)
				}
			}
			depth += simd.Popcount(om &^ accounted)
		}
	}
	s.markExhausted()
	return 0, false
}

// ScanToClose is a standalone form of SkipToClose for engines that keep a
// plain byte cursor instead of a Stream (the JSONSki-analogue baseline): it
// finds the closer matching an open character of the given kind, starting
// at absolute offset from with relative depth 1. from must lie outside any
// string (true for every position where a value can start), so a fresh
// quote state is valid.
func ScanToClose(data []byte, from int, open byte) (closePos int, ok bool) {
	s := NewStream(data[from:])
	p, ok := SkipToClose(s, 0, open)
	s.Release()
	return from + p, ok
}

// matchingClose maps an opening structural character to its closer.
func matchingClose(open byte) byte {
	if open == '{' {
		return '}'
	}
	return ']'
}

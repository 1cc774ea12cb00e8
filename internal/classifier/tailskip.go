package classifier

import "rsonpath/internal/simd"

// This file implements the classifier the paper sketches as future work in
// §4.5: "a classifier that allows to fast-forward to the next occurrence of
// a label within an object. Such a classifier could be leveraged to speed
// up the execution of nested descendant selectors."
//
// SeekLabelWithin scans forward from a position inside an element whose
// boundary sits rel levels up, and stops at whichever comes first:
//
//   - a verified occurrence of the sought object key (TailKey), reporting
//     the depth change accumulated on the way there, or
//   - the closing character that brings the relative depth to zero
//     (TailClose) — the element boundary the engine must process.
//
// Unlike the head-skip seeker (SeekLabelPattern), which is free to ignore
// structure because the initial state's scope is the whole document, this
// classifier tracks both bracket kinds to monitor the depth — exactly the
// "hard in general" part §3.3 points out for non-initial waiting states.
// Everything is read from the stream's planes, block by block: the bracket
// words, and key candidates from the quote classifier's masks (in-string
// positions are masked out, so brackets and quotes inside strings are
// invisible), with a whole-block fast path when a block holds no candidates
// and cannot drop the depth to zero. Like the depth classifier, the scan
// never loads the blocks it passes over.

// TailKind discriminates SeekLabelWithin results.
type TailKind int

const (
	// TailKey: a key occurrence of the label was found first.
	TailKey TailKind = iota
	// TailClose: the element boundary was reached first.
	TailClose
	// TailEnd: the input ended before either (malformed document).
	TailEnd
)

// TailEvent is the outcome of SeekLabelWithin.
type TailEvent struct {
	Kind TailKind
	// KeyAt/ValueAt are set for TailKey: the key's opening quote and the
	// first byte of its value.
	KeyAt   int
	ValueAt int
	// DepthDelta is set for TailKey: the change in document depth between
	// the scan start and the key's enclosing object interior.
	DepthDelta int
	// Pos is set for TailClose: the boundary closing character.
	Pos int
}

// SeekLabelWithin scans from absolute offset from, with the element
// boundary rel levels of nesting up (rel >= 1), until the next verified
// key occurrence of label or the boundary closer, whichever comes first.
// The stream is left on the block containing the event.
func SeekLabelWithin(s *Stream, from int, label []byte, rel int) TailEvent {
	in := s.Input()
	s.settle()
	idx := max(s.blockStart, from) / simd.BlockSize
	skip := simd.BitsBelow(max(from-idx*simd.BlockSize, 0))
	delta := 0
	for ; s.cover(idx); idx = s.hi {
		w := &s.w
		for i := idx - s.lo; i < len(w.Quote); i++ {
			opens, closes := w.Opens[i]&^skip, w.Closes[i]&^skip
			cands := w.Quote[i] & w.InString[i] &^ skip // opening quotes
			skip = 0
			// Fast path: nothing to verify and the depth cannot reach zero.
			if cands == 0 && simd.Popcount(closes) < rel {
				d := simd.Popcount(opens) - simd.Popcount(closes)
				rel += d
				delta += d
				continue
			}
			// Walk the block's events in order.
			base := (s.lo + i) * simd.BlockSize
			for m := opens | closes | cands; m != 0; m = simd.ClearLowest(m) {
				bit := simd.TrailingZeros(m)
				p := base + bit
				one := uint64(1) << uint(bit)
				switch {
				case opens&one != 0:
					rel++
					delta++
				case closes&one != 0:
					rel--
					delta--
					if rel == 0 {
						s.JumpTo(p)
						return TailEvent{Kind: TailClose, Pos: p}
					}
				default:
					if vs, ok := verifyKey(in, p, label); ok {
						s.JumpTo(p)
						return TailEvent{Kind: TailKey, KeyAt: p, ValueAt: vs, DepthDelta: delta}
					}
					// Not the sought key: the string's contents (including
					// any brackets and quotes) are already invisible through
					// the in-string mask, so just keep walking.
				}
			}
		}
	}
	s.markExhausted()
	return TailEvent{Kind: TailEnd}
}

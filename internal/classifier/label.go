package classifier

import (
	"bytes"

	"rsonpath/internal/input"
	"rsonpath/internal/simd"
)

// Needle is a head-skip label prepared for SeekLabelPattern: its quoted
// spelling and the two offsets of that pattern the packed-pair prefilter
// compares. It is a small value, built once per compiled query and shared
// by every seek of every run and record; a slice can hold several.
type Needle struct {
	pattern      []byte // the label in its quoted spelling, "label"
	rare1, rare2 int    // the pair: two distinct offsets into pattern
}

// NewNeedle prepares the quoted label pattern (`"` + label + `"`, as the
// automaton precomputes it) for the seeker. The pair is the pattern's
// rarest byte by byteRank and the rarest byte that differs from it, each
// at its first offset, so a label of two or more distinct bytes is
// filtered on two of its own bytes, never on a quote. A pattern of one
// repeated byte pairs its two ends. pattern is retained, not copied.
func NewNeedle(pattern []byte) Needle {
	n := Needle{pattern: pattern, rare2: -1}
	for i, b := range pattern {
		switch {
		case byteRank[b] < byteRank[pattern[n.rare1]]:
			// A new rarest byte; the previous one, a different byte no
			// rarer than any other seen, becomes the runner-up.
			n.rare1, n.rare2 = i, n.rare1
		case b != pattern[n.rare1] && (n.rare2 < 0 || byteRank[b] < byteRank[pattern[n.rare2]]):
			n.rare2 = i
		}
	}
	if n.rare2 < 0 {
		n.rare2 = len(pattern) - 1 // every byte equals pattern[0]
	}
	return n
}

// Label returns the label the needle seeks, unquoted.
func (n *Needle) Label() []byte { return n.pattern[1 : len(n.pattern)-1] }

// SeekLabelPattern implements skipping to a label (§3.3, §3.4): it finds
// the next occurrence of the needle's label as an object key at or after
// absolute offset from and returns the offset of the key's opening quote
// together with the offset of the first byte of its value. On success the
// stream is repositioned (with a correctly reconstructed quote state) on
// the block containing valueAt, ready for the engine to resume.
//
// from must lie outside any string, not be escaped, and not be on a
// string's closing quote — true for every value boundary, which is where
// the engine's head-skip loop resumes from (LeafEnd returns past a string
// value's closing quote).
//
// Like the paper's memmem-based skipping, candidates come from a vector
// substring prefilter: simd.PairCandidates compares the needle's two rare
// bytes at their offsets for a chunk of anchors at a time and returns the
// chunk's candidate mask, whose bits are verified here with bytes.Equal.
// Unlike the paper's original, verified occurrences are then screened
// against the quote structure, which the seeker tracks incrementally: the
// parity of unescaped quotes between candidates decides whether a
// candidate's first quote opens a string (a potential key) or closes one
// (an in-string false positive). Parity over a backslash-free gap is one
// vectorised bytes.Count; gaps with backslashes fall back to a scalar scan.
//
// Over a window-bounded input the search proceeds in window-sized chunks,
// carrying the quote parity (and a trailing-escape flag) across chunk
// boundaries; chunks overlap by len(pattern)-1 bytes so a pattern
// straddling a boundary is still found (both pair offsets lie inside the
// pattern, so its anchor falls in exactly one chunk).
//
// ok is false when no further occurrence exists.
func SeekLabelPattern(s *Stream, from int, n *Needle) (keyAt, valueAt int, ok bool) {
	pattern := n.pattern
	// Whether an occurrence can be a key depends on the label alone.
	isKey := keyable(n.Label())
	in := s.Input()
	chunkSize := in.Window()
	if chunkSize != 0 {
		// Request half the window per chunk, not all of it: the slack left
		// in the input's buffer lets consecutive chunks (and the engine's
		// resumed scans after a match) advance without forcing a slide per
		// request, keeping the memmove cost amortized.
		chunkSize /= 2
		if chunkSize < 2*len(pattern)+simd.BlockSize {
			// The overlap must leave room to make progress; oversized
			// requests beyond the input's capacity fail as window
			// violations, which is the documented outcome for labels that
			// defeat the window.
			chunkSize = 2*len(pattern) + simd.BlockSize
		}
	}
	pos := from       // absolute start of the unsearched region
	inString := false // quote state at pos
	escaped := false  // whether the byte at pos is escaped
refetch:
	for {
		var hi int
		if chunkSize == 0 {
			hi = in.Len() // in-memory input: one chunk covers the rest
		} else {
			hi = pos + chunkSize
		}
		buf := in.Bytes(pos, hi)
		final := chunkSize == 0 || len(buf) < hi-pos
		cur := 0  // relative offset the quote state is valid at
		next := 0 // relative offset of the first anchor left to filter
		for next < len(buf) {
			base, mask := simd.PairCandidates(buf[next:], pattern, n.rare1, n.rare2)
			if mask == 0 {
				break
			}
			chunk := next + base
			next = chunk + simd.BlockSize
			for ; mask != 0; mask = simd.ClearLowest(mask) {
				ci := chunk + simd.TrailingZeros(mask)
				if !bytes.Equal(buf[ci:ci+len(pattern)], pattern) {
					continue
				}
				gap := buf[cur:ci]
				candEscaped := false
				if !escaped && bytes.IndexByte(gap, '\\') < 0 {
					if bytes.Count(gap, pattern[:1])&1 == 1 {
						inString = !inString
					}
				} else {
					inString, candEscaped = advanceQuoteState(gap, inString, escaped)
				}
				escaped = false
				cur = ci + 1
				switch {
				case candEscaped:
					// The candidate's quote is escaped: it is string
					// content. The escape consumed the quote; the string
					// continues.
				case inString:
					// The candidate's first quote closes a string.
					inString = false
				default:
					// The candidate's first quote opens a string holding
					// the label, which bytes.Equal matched up to the
					// closing quote: verify the colon and the value.
					cand := pos + ci
					if isKey {
						if vs, match := valueAfterKey(in, cand+len(pattern)); match {
							s.JumpTo(vs)
							return cand, vs, true
						}
					}
					// Not a key (value string, longer key, or a label no
					// key can spell). Step inside the string and resume;
					// the parity logic disposes of the rest of it.
					// Verification touched the input, which may have
					// invalidated buf: refetch.
					inString = true
					pos += ci + 1
					continue refetch
				}
			}
		}
		if final {
			// No further occurrence. Carry the quote parity over the
			// unsearched tail so the stream records whether the document
			// ends inside a string — the engine's head-skip loop uses this
			// to reject truncated documents it never classified.
			if gap := buf[cur:]; !escaped && bytes.IndexByte(gap, '\\') < 0 {
				if bytes.Count(gap, pattern[:1])&1 == 1 {
					inString = !inString
				}
			} else {
				inString, _ = advanceQuoteState(gap, inString, escaped)
			}
			s.seekTailInString = inString
			return 0, 0, false
		}
		// Consume the chunk up to the overlap and carry the state forward.
		keep := len(buf) - (len(pattern) - 1)
		if keep < cur {
			keep = cur
		}
		if gap := buf[cur:keep]; !escaped && bytes.IndexByte(gap, '\\') < 0 {
			if bytes.Count(gap, pattern[:1])&1 == 1 {
				inString = !inString
			}
		} else {
			inString, escaped = advanceQuoteState(gap, inString, escaped)
		}
		pos += keep
	}
}

// advanceQuoteState runs the scalar quote automaton over gap, starting in
// the given (inString, escaped) state, and reports the state after the gap:
// the in-string parity plus whether the byte immediately following the gap
// is escaped.
func advanceQuoteState(gap []byte, inString, escaped bool) (after, nextEscaped bool) {
	for _, b := range gap {
		switch {
		case escaped:
			escaped = false
		case b == '\\':
			escaped = true
		case b == '"':
			inString = !inString
		}
	}
	return inString, escaped
}

// verifyKey checks that the opening quote at q starts the string label,
// immediately followed by an unescaped closing quote and then (after
// whitespace) a colon. It returns the offset of the value's first byte.
func verifyKey(in input.Input, q int, label []byte) (valueAt int, ok bool) {
	if !keyable(label) {
		return 0, false
	}
	end := q + 1 + len(label) // the closing quote, if this is the key
	got := in.Bytes(q+1, end+1)
	if len(got) < len(label)+1 || got[len(label)] != '"' {
		return 0, false
	}
	if !bytes.Equal(got[:len(label)], label) {
		return 0, false
	}
	return valueAfterKey(in, end+1)
}

// keyable reports whether label, compared byte for byte with a key's raw
// spelling, can be a key at all. No key holds an unescaped quote, and a
// label that ends in an odd run of backslashes escapes the quote that
// would close the key.
func keyable(label []byte) bool {
	escaped := false
	for _, b := range label {
		switch {
		case escaped:
			escaped = false
		case b == '\\':
			escaped = true
		case b == '"':
			return false
		}
	}
	return !escaped
}

// valueAfterKey checks that, from offset i just past a key's closing
// quote, only whitespace precedes a colon and a value byte follows it
// (after whitespace). It returns the offset of the value's first byte.
func valueAfterKey(in input.Input, i int) (valueAt int, ok bool) {
	i = skipWhitespace(in, i)
	if b, okb := in.ByteAt(i); !okb || b != ':' {
		return 0, false
	}
	i = skipWhitespace(in, i+1)
	if _, okb := in.ByteAt(i); !okb {
		return 0, false
	}
	return i, true
}

// skipWhitespace returns the first offset at or after i holding a
// non-whitespace byte (or the document length), scanning in block-sized
// chunks.
func skipWhitespace(in input.Input, i int) int {
	for {
		chunk := in.Bytes(i, i+simd.BlockSize)
		if len(chunk) == 0 {
			return i
		}
		for j, b := range chunk {
			if !isWhitespace(b) {
				return i + j
			}
		}
		i += len(chunk)
	}
}

func isWhitespace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// reconstructQuoteState derives the quote state at blockStart from an
// anchor position pos (outside any string, not escaped) in the same block.
// The first byte of the block is escaped iff an odd backslash run ends just
// before it; the state at pos is "outside", and each unescaped quote
// between the block start and pos flips it, so the block-start state is the
// flip parity.
func reconstructQuoteState(in input.Input, blockStart, pos int) quoteState {
	var qs quoteState
	if oddBackslashRunEndingAt(in, blockStart) {
		qs.prevEscaped = 1
	}
	parity := false
	escaped := qs.prevEscaped == 1
	for _, b := range in.Bytes(blockStart, pos) {
		switch {
		case escaped:
			escaped = false
		case b == '\\':
			escaped = true
		case b == '"':
			parity = !parity
		}
	}
	if parity {
		qs.prevInString = ^uint64(0)
	}
	return qs
}

// oddBackslashRunEndingAt reports whether the backslash run ending directly
// before pos has odd length, scanning backward in block-sized chunks. A run
// extending past the input's retained look-behind is a window violation.
func oddBackslashRunEndingAt(in input.Input, pos int) bool {
	n := 0
	i := pos
	for i > 0 {
		lo := i - simd.BlockSize
		if r := in.Retained(); lo < r {
			lo = r
		}
		if lo >= i {
			input.Exceeded("backslash-run", i)
		}
		chunk := in.Bytes(lo, i)
		j := len(chunk) - 1
		for j >= 0 && chunk[j] == '\\' {
			j--
			n++
		}
		if j >= 0 {
			break
		}
		i = lo
	}
	return n%2 == 1
}

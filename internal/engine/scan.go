package engine

import (
	"rsonpath/internal/input"
)

// Scalar document-scanning helpers shared by the single-query run loop, the
// set loop and the stackless engine. These are the rare per-event scalar
// verifications the paper performs outside the
// SIMD pipeline (§3.4): label backtracking, value-start plausibility, and
// leaf delimitation.
//
// Each helper takes an input.Input. Over an in-memory document it runs the
// original slice scan (input.Contiguous); over a window-bounded input it
// scans in block-sized chunks, forward without limit and backward within
// the input's retained look-behind (a label further back than the window
// retains surfaces as a window-violation panic, converted to an error at
// the Run boundary).

// valueAfter returns the offset of the first non-whitespace byte after the
// comma, colon or opening bracket at pos, and whether a JSON value can begin
// there; it guards emissions against truncated input, empty arrays and
// trailing commas.
func valueAfter(in input.Input, pos int) (vs int, ok bool) {
	vs = firstNonWS(in, pos+1)
	b, ok := in.ByteAt(vs)
	return vs, ok && b != ',' && b != ':' && b != ']' && b != '}'
}

// firstNonWS returns the first offset at or after i with a non-whitespace
// byte, or the document length.
func firstNonWS(in input.Input, i int) int {
	if data := input.Contiguous(in); data != nil {
		for i < len(data) {
			switch data[i] {
			case ' ', '\t', '\n', '\r':
				i++
			default:
				return i
			}
		}
		return i
	}
	for {
		chunk := in.Bytes(i, i+input.BlockSize)
		if len(chunk) == 0 {
			return i
		}
		for j, b := range chunk {
			if !isWS(b) {
				return i + j
			}
		}
		i += len(chunk)
	}
}

// labelBeforeInput backtracks from the position of an opening character (or of
// the byte just past a label's colon) to the label it belongs to (§3.4's
// get_label()). It returns hasLabel=false for array entries (artificial
// label) and ok=false when the document is malformed. The returned slice
// aliases the input's storage and holds the raw key bytes, escapes
// included; it is valid only until the next access to the input.
func labelBeforeInput(in input.Input, pos int) (label []byte, hasLabel, ok bool) {
	if data := input.Contiguous(in); data != nil {
		return labelBeforeSlice(data, pos)
	}
	b := backScan{in: in, base: pos, hi: pos}
	i := pos - 1
	for i >= 0 && isWS(b.at(i)) {
		i--
	}
	if i < 0 {
		return nil, false, true // document root
	}
	switch b.at(i) {
	case ',', '[':
		return nil, false, true // array entry
	case ':':
		i--
	default:
		return nil, false, false
	}
	for i >= 0 && isWS(b.at(i)) {
		i--
	}
	if i < 0 || b.at(i) != '"' {
		return nil, false, false
	}
	closing := i
	// Find the key's opening quote, skipping quotes that are escaped.
	for {
		i--
		for i >= 0 && b.at(i) != '"' {
			i--
		}
		if i < 0 {
			return nil, false, false
		}
		// Count the backslashes immediately before the candidate quote.
		bs := 0
		for j := i - 1; j >= 0 && b.at(j) == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return b.slice(i+1, closing), true, true
		}
	}
}

// labelBeforeSlice is labelBeforeInput's in-memory scan.
func labelBeforeSlice(data []byte, pos int) (label []byte, hasLabel, ok bool) {
	colon, ok := colonBefore(data, pos)
	if colon < 0 || !ok {
		return nil, false, ok
	}
	label, ok = keyBeforeSlice(data, colon)
	return label, ok, ok
}

// colonBefore walks back from pos over whitespace to what precedes a value
// starting at pos: the colon after a key, whose position it returns, or
// -1 for an array entry and the document root. ok is false when something
// else precedes the value.
func colonBefore(data []byte, pos int) (colon int, ok bool) {
	i := pos - 1
	for i >= 0 && isWS(data[i]) {
		i--
	}
	if i < 0 {
		return -1, true // document root
	}
	switch data[i] {
	case ',', '[':
		return -1, true // array entry
	case ':':
		return i, true
	}
	return -1, false
}

// keyBeforeSlice walks back from the colon at colon to the key it follows;
// ok is false when there is none.
func keyBeforeSlice(data []byte, colon int) (label []byte, ok bool) {
	i := colon - 1
	for i >= 0 && isWS(data[i]) {
		i--
	}
	if i < 0 || data[i] != '"' {
		return nil, false
	}
	closing := i
	for {
		i--
		for i >= 0 && data[i] != '"' {
			i--
		}
		if i < 0 {
			return nil, false
		}
		bs := 0
		for j := i - 1; j >= 0 && data[j] == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return data[i+1 : closing], true
		}
	}
}

// allWS reports whether b holds only whitespace.
func allWS(b []byte) bool {
	for _, c := range b {
		if !isWS(c) {
			return false
		}
	}
	return true
}

// backScan serves backward byte access over a window-bounded input: a
// cached slice covering [base, hi), grown downward on demand. Growing past
// the input's retained look-behind is a window violation.
type backScan struct {
	in   input.Input
	buf  []byte
	base int
	hi   int
}

// at returns the byte at absolute offset i (0 ≤ i < hi).
func (b *backScan) at(i int) byte {
	if i < b.base {
		newBase := i - input.BlockSize
		if r := b.in.Retained(); newBase < r {
			newBase = r
		}
		if newBase > i {
			input.Exceeded("label-backscan", i)
		}
		b.buf = b.in.Bytes(newBase, b.hi)
		b.base = newBase
	}
	return b.buf[i-b.base]
}

// slice returns the bytes [lo, hi) of the cached span.
func (b *backScan) slice(lo, hi int) []byte {
	return b.buf[lo-b.base : hi-b.base]
}

func isWS(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// lastNonWS scans backward from the end of the document and returns the
// offset of the last non-whitespace byte. ok=false when none exists within
// the input's retained look-behind (an all-whitespace tail wider than the
// window cannot be verified). Only valid once the input's end has been
// observed (Len() ≥ 0).
func lastNonWS(in input.Input) (pos int, ok bool) {
	i := in.Len()
	floor := in.Retained()
	for i > floor {
		lo := i - input.BlockSize
		if lo < floor {
			lo = floor
		}
		chunk := in.Bytes(lo, i)
		for j := len(chunk) - 1; j >= 0; j-- {
			if !isWS(chunk[j]) {
				return lo + j, true
			}
		}
		i = lo
	}
	return 0, false
}

// leafEnd returns the offset just past the atomic value starting at pos.
func leafEnd(in input.Input, pos int) int {
	if data := input.Contiguous(in); data != nil {
		return leafEndSlice(data, pos)
	}
	first, ok := in.ByteAt(pos)
	if !ok {
		return pos
	}
	i := pos + 1
	if first == '"' {
		escaped := false
		for {
			chunk := in.Bytes(i, i+input.BlockSize)
			if len(chunk) == 0 {
				return i
			}
			for j, c := range chunk {
				switch {
				case escaped:
					escaped = false
				case c == '\\':
					escaped = true
				case c == '"':
					return i + j + 1
				}
			}
			i += len(chunk)
		}
	}
	i = pos
	for {
		chunk := in.Bytes(i, i+input.BlockSize)
		if len(chunk) == 0 {
			return i
		}
		for j, c := range chunk {
			switch c {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return i + j
			}
		}
		i += len(chunk)
	}
}

// leafEndSlice is leafEnd's in-memory scan.
func leafEndSlice(data []byte, pos int) int {
	if data[pos] == '"' {
		i := pos + 1
		for i < len(data) {
			switch data[i] {
			case '"':
				return i + 1
			case '\\':
				i += 2
			default:
				i++
			}
		}
		return i
	}
	i := pos
	for i < len(data) {
		switch data[i] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
			return i
		}
		i++
	}
	return i
}

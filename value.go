package rsonpath

import (
	"fmt"

	"rsonpath/internal/classifier"
)

// ValueAt extracts the complete JSON value starting at offset pos in data,
// as reported by Query.Run. The returned slice aliases data. Composite
// values are delimited with the same word-parallel depth scan the engine
// uses for skipping.
//
// A value that does not end well-formed is a *MalformedError at the offset
// where the scan stopped: the closer of the wrong kind that ends it, or the
// document's length, with kind "unterminated value", when the document
// ends first.
func ValueAt(data []byte, pos int) ([]byte, error) {
	if pos < 0 || pos >= len(data) {
		return nil, fmt.Errorf("rsonpath: offset %d out of range", pos)
	}
	switch c := data[pos]; c {
	case '{', '[':
		end, ok := classifier.ScanToClose(data, pos+1, c)
		switch {
		case !ok && end < len(data):
			return nil, mismatchedCloser(end)
		case !ok:
			return nil, unterminatedValue(len(data))
		}
		return data[pos : end+1], nil
	case '"':
		i := pos + 1
		for i < len(data) {
			switch data[i] {
			case '"':
				return data[pos : i+1], nil
			case '\\':
				i += 2
			default:
				i++
			}
		}
		return nil, unterminatedValue(len(data))
	default:
		i := pos
		for i < len(data) {
			switch data[i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return data[pos:i], nil
			}
			i++
		}
		return data[pos:i], nil
	}
}

// unterminatedValue is the verdict of a value scan that reached the end of
// an n-byte document before the value ended.
func unterminatedValue(n int) error {
	return &MalformedError{Offset: n, Kind: "unterminated value"}
}

// mismatchedCloser is the verdict of a value scan stopped by a closer of
// the other kind than the value's opener, at offset off.
func mismatchedCloser(off int) error {
	return &MalformedError{Offset: off, Kind: "mismatched closer"}
}

// Package ski is the JSONSki-analogue baseline of §5.2: a reimplementation
// of the published JSONSki algorithm (Jiang & Zhao, ASPLOS 2022) on the
// same SWAR substrate as the main engine.
//
// Faithfully to the original, it supports only child label selectors and
// wildcard selectors, with JSONSki's restricted wildcard semantics: a
// wildcard steps into every entry of an array but not into the fields of an
// object (§1.1). Descendant and index selectors are rejected at
// compilation. Irrelevant values are fast-forwarded with the bit-parallel
// bracket counting of classifier.ScanToClose, and once a label step has
// matched, the remaining siblings are fast-forwarded to the enclosing
// closer — the skipping repertoire the paper credits JSONSki with.
//
// It runs over in-memory documents only: it is a benchmark baseline, not a
// library engine.
package ski

import (
	"errors"
	"fmt"

	"rsonpath/internal/classifier"
	"rsonpath/internal/errs"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
)

// ErrUnsupported is returned for queries outside JSONSki's fragment.
var ErrUnsupported = errors.New("ski: query uses selectors JSONSki does not support (descendant, index, slice, or union)")

// ErrMalformed is returned for inputs the scanner cannot balance.
var ErrMalformed = errors.New("ski: malformed JSON input")

// step is one query step: a concrete label or an (array-only) wildcard.
type step struct {
	label    []byte
	wildcard bool
}

// Engine executes one compiled query. Safe for concurrent use.
type Engine struct {
	steps []step
}

// New compiles q, rejecting selectors outside JSONSki's fragment
// (descendants, indices, and unions).
func New(q *jsonpath.Query) (*Engine, error) {
	e := &Engine{}
	for i := range q.Selectors {
		sel := &q.Selectors[i]
		if sel.Descendant || sel.SelectsIndices() || len(sel.Labels) > 1 {
			return nil, ErrUnsupported
		}
		st := step{wildcard: sel.Wildcard}
		if !sel.Wildcard {
			st.label = sel.Labels[0]
		}
		e.steps = append(e.steps, st)
	}
	return e, nil
}

// CompileQuery parses and compiles a query string.
func CompileQuery(query string) (*Engine, error) {
	q, err := jsonpath.Parse(query)
	if err != nil {
		return nil, err
	}
	return New(q)
}

// Count runs the query and returns the number of matches.
func (e *Engine) Count(data []byte) (int, error) {
	n := 0
	err := e.Run(data, func(int) { n++ })
	return n, err
}

// Matches runs the query and returns match offsets in document order.
func (e *Engine) Matches(data []byte) ([]int, error) {
	var out []int
	err := e.Run(data, func(pos int) { out = append(out, pos) })
	return out, err
}

// Run streams an in-memory document, invoking emit for every match.
//
// Note on depth limits: ski's recursion is bounded by the query length, not
// the document depth (irrelevant subtrees are fast-forwarded with the
// bit-parallel depth scan, which uses O(1) memory), so the engine is exempt
// from the depth limit the stack-bearing engines enforce.
func (e *Engine) Run(data []byte, emit func(pos int)) error {
	r := &run{e: e, data: data, emit: emit}
	pos := r.skipWS(0)
	c, ok := r.at(pos)
	if !ok {
		return r.errf(0, "empty input")
	}
	if c != '{' && c != '[' {
		// Atomic root: validate the lone scalar and reject trailing
		// bytes; no step can descend into it.
		end, bad := input.AtomSpan(input.NewBytes(data), pos)
		if bad != "" {
			return r.errf(end, bad)
		}
		if err := r.checkTrailing(end); err != nil {
			return err
		}
		if len(e.steps) == 0 {
			emit(pos)
		}
		return nil
	}
	if len(e.steps) == 0 {
		emit(pos)
		end, err := r.skipValue(pos)
		if err != nil {
			return err
		}
		return r.checkTrailing(end)
	}
	end, err := r.value(pos, 0)
	if err != nil {
		return err
	}
	return r.checkTrailing(end)
}

// checkTrailing rejects non-whitespace bytes after the root value.
func (r *run) checkTrailing(end int) error {
	if p := r.skipWS(end); p < len(r.data) {
		return r.errf(p, "trailing content")
	}
	return nil
}

type run struct {
	e    *Engine
	data []byte
	emit func(int)
}

// at returns the document byte at offset i; ok is false past the end.
func (r *run) at(i int) (byte, bool) {
	if i < len(r.data) {
		return r.data[i], true
	}
	return 0, false
}

func (r *run) errf(pos int, format string, args ...interface{}) error {
	return &errs.Malformed{Sentinel: ErrMalformed, Offset: pos, Kind: fmt.Sprintf(format, args...)}
}

// value processes the value at pos against steps[k:] and returns the offset
// just past the value. k < len(steps): the caller reports final matches.
func (r *run) value(pos, k int) (end int, err error) {
	st := r.e.steps[k]
	switch c, _ := r.at(pos); c {
	case '{':
		if st.wildcard {
			// JSONSki wildcard semantics: objects are not traversed.
			return r.skipValue(pos)
		}
		return r.object(pos, k)
	case '[':
		if !st.wildcard {
			// Labels cannot match array entries.
			return r.skipValue(pos)
		}
		return r.array(pos, k)
	default:
		return r.skipValue(pos)
	}
}

// dispatch routes a child value: emit it when the query is exhausted,
// recurse otherwise.
func (r *run) dispatch(pos, k int) (end int, err error) {
	if k == len(r.e.steps) {
		r.emit(pos)
		return r.skipValue(pos)
	}
	return r.value(pos, k)
}

// object scans the members of the object at pos, descending into the one
// whose key equals the step's label and fast-forwarding everything else.
func (r *run) object(pos, k int) (end int, err error) {
	label := r.e.steps[k].label
	i := r.skipWS(pos + 1)
	if b, ok := r.at(i); ok && b == '}' {
		return i + 1, nil
	}
	for {
		if b, ok := r.at(i); !ok || b != '"' {
			return 0, r.errf(i, "expected object key")
		}
		key, j, err := r.scanString(i)
		if err != nil {
			return 0, err
		}
		match := bytesEqual(key, label)
		j = r.skipWS(j)
		if b, ok := r.at(j); !ok || b != ':' {
			return 0, r.errf(j, "expected ':'")
		}
		v := r.skipWS(j + 1)
		if _, ok := r.at(v); !ok {
			return 0, r.errf(v, "missing value")
		}
		if match {
			after, err := r.dispatch(v, k+1)
			if err != nil {
				return 0, err
			}
			// Keys are assumed unique among siblings: fast-forward to the
			// object's closer (JSONSki's sibling skipping). The depth scan
			// starts just past the matched member — one unmatched opening
			// brace up — so it only ever moves forward.
			close, ok := classifier.ScanToClose(r.data, after, '{')
			if !ok {
				return 0, r.errf(pos, "unterminated object")
			}
			return close + 1, nil
		}
		i, err = r.skipValue(v)
		if err != nil {
			return 0, err
		}
		i = r.skipWS(i)
		b, ok := r.at(i)
		if !ok {
			return 0, r.errf(i, "unterminated object")
		}
		switch b {
		case ',':
			i = r.skipWS(i + 1)
		case '}':
			return i + 1, nil
		default:
			return 0, r.errf(i, "expected ',' or '}'")
		}
	}
}

// array scans the entries of the array at pos, descending into each
// (wildcard step).
func (r *run) array(pos, k int) (end int, err error) {
	i := r.skipWS(pos + 1)
	if b, ok := r.at(i); ok && b == ']' {
		return i + 1, nil
	}
	for {
		if _, ok := r.at(i); !ok {
			return 0, r.errf(i, "unterminated array")
		}
		i, err = r.dispatch(i, k+1)
		if err != nil {
			return 0, err
		}
		i = r.skipWS(i)
		b, ok := r.at(i)
		if !ok {
			return 0, r.errf(i, "unterminated array")
		}
		switch b {
		case ',':
			i = r.skipWS(i + 1)
		case ']':
			return i + 1, nil
		default:
			return 0, r.errf(i, "expected ',' or ']'")
		}
	}
}

// skipValue fast-forwards over the value at pos and returns the offset just
// past it; composite values use the bit-parallel depth scan.
func (r *run) skipValue(pos int) (end int, err error) {
	switch c, _ := r.at(pos); {
	case c == '{' || c == '[':
		close, ok := classifier.ScanToClose(r.data, pos+1, c)
		if !ok {
			return 0, r.errf(pos, "unterminated value")
		}
		return close + 1, nil
	case c == '"':
		return r.skipString(pos)
	default:
		i := pos
		for {
			b, ok := r.at(i)
			if !ok {
				return i, nil
			}
			switch b {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return i, nil
			}
			i++
		}
	}
}

// scanString consumes the string starting at the quote at pos, returning
// its raw contents and the offset just past the closing quote. The slice
// aliases the document.
func (r *run) scanString(pos int) (raw []byte, end int, err error) {
	i := pos + 1
	for {
		b, ok := r.at(i)
		if !ok {
			return nil, 0, errUnterminatedString(pos)
		}
		switch b {
		case '"':
			return r.data[pos+1 : i], i + 1, nil
		case '\\':
			i += 2
		default:
			i++
		}
	}
}

// errUnterminatedString builds the typed unterminated-string error shared by
// scanString and skipString.
func errUnterminatedString(pos int) error {
	return &errs.Malformed{Sentinel: ErrMalformed, Offset: pos, Kind: "unterminated string"}
}

// skipString consumes the string starting at the quote at pos without
// materializing its contents.
func (r *run) skipString(pos int) (end int, err error) {
	i := pos + 1
	for {
		b, ok := r.at(i)
		if !ok {
			return 0, errUnterminatedString(pos)
		}
		switch b {
		case '"':
			return i + 1, nil
		case '\\':
			i += 2
		default:
			i++
		}
	}
}

func (r *run) skipWS(i int) int {
	for {
		b, ok := r.at(i)
		if !ok {
			return i
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package engine

import (
	"errors"

	"rsonpath/internal/classifier"
	"rsonpath/internal/depthstack"
	"rsonpath/internal/errs"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
)

// This file implements the depth-register automata of §3.2 (after Barloy,
// Murlak & Paperman, "Stackless processing of streamed trees", PODS'21):
// the stackless algorithm for descendant-only queries $..l1..l2…..ln that
// uses depth registers instead of any stack. The paper generalizes this
// model into the depth-stack automaton; keeping the restricted model
// executable makes the generalization concrete and benchmarkable — for
// child-free queries the depth-stack degenerates to exactly these
// registers (§3.2: "the at most n frames on the stack correspond directly
// to the n registers from the stackless algorithm").
//
// States are 1..n+1 and register i holds the depth at which selector i
// matched. Transitions, per the paper:
//
//   - when the current depth falls to register i-1's value, move to state
//     i-1 (not applicable in state 1);
//   - when label l_i is found, set register i to the current depth and move
//     to state i+1 (reporting when i = n).
//
// One amendment, required by node semantics and confirmed against the DFA
// engine by differential tests: in state n+1, further occurrences of l_n
// are reported too (they are nested matches), and falling back from state
// n+1 reads register n — so the implementation keeps n registers rather
// than the n-1 the paper's prose mentions.

// ErrNotStackless is returned for queries outside the depth-register
// fragment (anything but a chain of descendant label selectors).
var ErrNotStackless = errors.New("engine: query is not a descendant-only label chain")

// Stackless executes descendant-only label-chain queries with depth
// registers and no stack. Safe for concurrent use.
type Stackless struct {
	labels   [][]byte
	maxDepth int
}

// LimitDepth caps the document nesting the engine will walk; deeper input
// aborts the run with a typed *errs.Limit. 0 or negative disables the
// check.
func (e *Stackless) LimitDepth(max int) { e.maxDepth = max }

// NewStackless compiles q, rejecting queries outside the fragment.
func NewStackless(q *jsonpath.Query) (*Stackless, error) {
	e := &Stackless{}
	for i := range q.Selectors {
		sel := &q.Selectors[i]
		if !sel.Descendant || sel.Wildcard || len(sel.Labels) != 1 || sel.SelectsIndices() {
			return nil, ErrNotStackless
		}
		e.labels = append(e.labels, sel.Labels[0])
	}
	if len(e.labels) == 0 {
		return nil, ErrNotStackless
	}
	return e, nil
}

// Count runs the query and returns the number of matches.
func (e *Stackless) Count(data []byte) (int, error) {
	n := 0
	err := e.Run(data, func(int) { n++ })
	return n, err
}

// Matches runs the query and returns match offsets in document order.
func (e *Stackless) Matches(data []byte) ([]int, error) {
	var out []int
	err := e.Run(data, func(pos int) { out = append(out, pos) })
	return out, err
}

// Run streams an in-memory document once, reporting each match's value
// offset.
func (e *Stackless) Run(data []byte, emit func(pos int)) error {
	return e.RunInput(input.NewBytes(data), emit)
}

// RunInput is Run over any input source; over a window-bounded input the
// engine's memory stays bounded by the window.
func (e *Stackless) RunInput(in input.Input, emit func(pos int)) error {
	return input.Guard(func() error { return e.runInput(in, emit) })
}

func (e *Stackless) runInput(in input.Input, emit func(pos int)) error {
	rootPos := firstNonWS(in, 0)
	c, ok := in.ByteAt(rootPos)
	if !ok {
		return errMalformedAt(0, "empty input")
	}
	if c != '{' && c != '[' {
		// Atomic root: no descendants, but the lone scalar must still be a
		// complete value with nothing after it.
		end, bad := input.AtomSpan(in, rootPos)
		if bad != "" {
			return errMalformedAt(end, bad)
		}
		if p, found := input.TrailingContent(in, end); found {
			return errMalformedAt(p, "trailing content")
		}
		return nil
	}

	n := len(e.labels)
	regs := make([]int, n+1) // regs[i]: depth at which selector i matched
	state := 1
	depth := 1
	var kinds depthstack.KindMap
	kinds.Reset()
	kinds.Set(1, c == '{')

	stream := classifier.NewStreamInput(in)
	defer stream.Release()
	iter := classifier.NewStructural(stream, rootPos+1)
	// Leaves can only match the final selector; commas never matter
	// (array entries carry no labels).
	iter.SetColons(state >= n)

	for {
		pos, ch, ok := iter.Next()
		if !ok {
			end := in.Len()
			if end < 0 {
				end = 0
			}
			return errMalformedAt(end, "unterminated document")
		}
		switch ch {
		case '{', '[':
			label, hasLabel, lok := labelBeforeInput(in, pos)
			if !lok {
				return errMalformedAt(pos, "cannot locate label")
			}
			if hasLabel {
				switch {
				case state <= n && bytesEq(label, e.labels[state-1]):
					if state == n {
						emit(pos)
					}
					regs[state] = depth
					state++
					iter.SetColons(state >= n)
				case state == n+1 && bytesEq(label, e.labels[n-1]):
					emit(pos) // nested match below a full match
				}
			}
			depth++
			if e.maxDepth > 0 && depth > e.maxDepth {
				return errs.DepthLimit(e.maxDepth, pos)
			}
			kinds.Set(depth, ch == '{')
		case '}', ']':
			if kinds.Get(depth) != (ch == '}') {
				return errMalformedAt(pos, "mismatched closer")
			}
			depth--
			if depth == 0 {
				if p, found := input.TrailingContent(in, pos+1); found {
					return errMalformedAt(p, "trailing content")
				}
				return nil
			}
			if state > 1 && regs[state-1] == depth {
				state--
				iter.SetColons(state >= n)
			}
		case ':':
			if _, nch, ok := iter.Peek(); ok && (nch == '{' || nch == '[') {
				continue // composite value: handled at its opening
			}
			label, hasLabel, lok := labelBeforeInput(in, pos+1)
			if !lok || !hasLabel {
				return errMalformedAt(pos, "colon without label")
			}
			// Only enabled when state >= n: a leaf can complete the query
			// but cannot host deeper matches.
			if bytesEq(label, e.labels[n-1]) {
				vs, ok := valueAfter(in, pos)
				if !ok {
					return errMalformedAt(pos, "missing value")
				}
				emit(vs)
			}
		}
	}
}

func bytesEq(a, b []byte) bool {
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

func errMalformedAt(pos int, why string) error {
	return &errs.Malformed{Sentinel: ErrMalformed, Offset: pos, Kind: why}
}

// Package surfer is the JsonSurfer-analogue baseline of §5.2: a streaming
// JSONPath engine with no SIMD/SWAR acceleration and no skipping. It
// tokenizes the input byte by byte and simulates the query automaton with
// the classical stack discipline of §3.2 — push the state on every opening
// character, transition on every label, pop on every closing character.
//
// It supports the full query fragment (child, descendant, wildcard, index)
// and, like the original baseline, validates the documents it scans
// reasonably strictly. Differential tests hold it to the same oracle as the
// main engine; in benchmarks it provides the "no acceleration" floor.
//
// It runs over in-memory documents only: it is a benchmark baseline, not a
// library engine.
package surfer

import (
	"errors"
	"fmt"

	"rsonpath/internal/automaton"
	"rsonpath/internal/errs"
	"rsonpath/internal/jsonpath"
)

// ErrMalformed is returned for inputs the tokenizer cannot parse.
var ErrMalformed = errors.New("surfer: malformed JSON input")

// Engine executes one compiled query. Safe for concurrent use.
type Engine struct {
	dfa        *automaton.DFA
	needsIndex bool
	maxDepth   int
}

// LimitDepth caps the document nesting (and with it the explicit frame
// stack) the baseline will walk; deeper input aborts the run with a typed
// *errs.Limit. 0 or negative disables the check. Call before the first Run.
func (e *Engine) LimitDepth(max int) { e.maxDepth = max }

// New builds a baseline engine for a compiled automaton.
func New(dfa *automaton.DFA) *Engine {
	e := &Engine{dfa: dfa}
	for s := range dfa.States {
		if dfa.States[s].NeedsIndexInArray {
			e.needsIndex = true
		}
	}
	return e
}

// CompileQuery parses and compiles a query into a baseline engine.
func CompileQuery(query string) (*Engine, error) {
	q, err := jsonpath.Parse(query)
	if err != nil {
		return nil, err
	}
	dfa, err := automaton.Compile(q, automaton.Options{})
	if err != nil {
		return nil, err
	}
	return New(dfa), nil
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

// frame is the classical per-depth stack entry.
type frame struct {
	state automaton.StateID // state of the enclosing container
	isObj bool
	idx   int // next array entry index
}

type run struct {
	e             *Engine
	data          []byte
	pos           int
	emit          func(int)
	trailingComma bool
}

func (r *run) errf(format string, args ...interface{}) error {
	return &errs.Malformed{Sentinel: ErrMalformed, Offset: r.pos, Kind: fmt.Sprintf(format, args...)}
}

// at returns the document byte at offset i; ok is false past the end.
func (r *run) at(i int) (byte, bool) {
	if i < len(r.data) {
		return r.data[i], true
	}
	return 0, false
}

// Run streams an in-memory document, invoking emit for every match.
func (e *Engine) Run(data []byte, emit func(pos int)) error {
	r := &run{e: e, data: data, emit: emit}
	r.ws()
	if _, ok := r.at(r.pos); !ok {
		return r.errf("empty input")
	}
	init := e.dfa.Initial
	if e.dfa.States[init].Accepting {
		emit(r.pos)
	}
	if err := r.value(init); err != nil {
		return err
	}
	r.ws()
	if _, ok := r.at(r.pos); ok {
		return r.errf("trailing content")
	}
	return nil
}

// value consumes one JSON value; state is the automaton state valid for the
// container's children (matches were already reported by the caller).
func (r *run) value(state automaton.StateID) error {
	switch c, _ := r.at(r.pos); {
	case c == '{':
		return r.container(state, true)
	case c == '[':
		return r.container(state, false)
	case c == '"':
		return r.strSkip()
	case c == 't':
		return r.lit("true")
	case c == 'f':
		return r.lit("false")
	case c == 'n':
		return r.lit("null")
	case c == '-' || (c >= '0' && c <= '9'):
		return r.number()
	default:
		return r.errf("unexpected character %q", c)
	}
}

// container walks an object or array iteratively with an explicit stack —
// the classical simulation of §3.2 whose stack height is tied to the
// document depth.
func (r *run) container(state automaton.StateID, isObj bool) error {
	dfa := r.e.dfa
	stack := []frame{{state: state, isObj: isObj}}
	r.pos++ // consume the opening character

	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		r.ws()
		b, ok := r.at(r.pos)
		if !ok {
			return r.errf("unterminated container")
		}

		// Closing character?
		if top.isObj && b == '}' || !top.isObj && b == ']' {
			if top.idx > 0 && r.trailingComma {
				return r.errf("trailing comma")
			}
			r.pos++
			stack = stack[:len(stack)-1]
			r.trailingComma = false
			// Separator handling in the parent happens on its next turn.
			if len(stack) > 0 {
				if err := r.separator(&stack[len(stack)-1]); err != nil {
					return err
				}
			}
			continue
		}

		// Member or entry.
		var target automaton.StateID
		if top.isObj {
			if b != '"' {
				return r.errf("expected object key")
			}
			key, err := r.str()
			if err != nil {
				return err
			}
			target = dfa.Transition(top.state, key)
			r.ws()
			if c, ok := r.at(r.pos); !ok || c != ':' {
				return r.errf("expected ':'")
			}
			r.pos++
			r.ws()
		} else {
			if r.e.needsIndex {
				target = dfa.TransitionIndex(top.state, top.idx)
			} else {
				target = dfa.TransitionFallback(top.state)
			}
		}
		top.idx++
		r.trailingComma = false

		c, ok := r.at(r.pos)
		if !ok {
			return r.errf("missing value")
		}
		if dfa.States[target].Accepting {
			r.emit(r.pos)
		}
		switch c {
		case '{', '[':
			if max := r.e.maxDepth; max > 0 && len(stack) >= max {
				return errs.DepthLimit(max, r.pos)
			}
			stack = append(stack, frame{state: target, isObj: c == '{'})
			r.pos++
		default:
			if err := r.value(target); err != nil {
				return err
			}
			if err := r.separator(&stack[len(stack)-1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// separator consumes an optional comma after a finished member/entry.
func (r *run) separator(top *frame) error {
	r.ws()
	if b, ok := r.at(r.pos); ok && b == ',' {
		r.pos++
		r.trailingComma = true
	}
	return nil
}

func (r *run) ws() {
	for {
		b, ok := r.at(r.pos)
		if !ok {
			return
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// str consumes a string literal, returning the raw bytes between quotes.
// The slice aliases the document.
func (r *run) str() ([]byte, error) {
	r.pos++ // opening quote
	start := r.pos
	for {
		b, ok := r.at(r.pos)
		if !ok {
			return nil, r.errf("unterminated string")
		}
		switch b {
		case '"':
			raw := r.data[start:r.pos]
			r.pos++
			return raw, nil
		case '\\':
			r.pos += 2
		default:
			r.pos++
		}
	}
}

// strSkip consumes a string literal without materializing its contents.
func (r *run) strSkip() error {
	r.pos++ // opening quote
	for {
		b, ok := r.at(r.pos)
		if !ok {
			return r.errf("unterminated string")
		}
		switch b {
		case '"':
			r.pos++
			return nil
		case '\\':
			r.pos += 2
		default:
			r.pos++
		}
	}
}

func (r *run) lit(s string) error {
	for k := 0; k < len(s); k++ {
		if b, ok := r.at(r.pos + k); !ok || b != s[k] {
			return r.errf("invalid literal")
		}
	}
	r.pos += len(s)
	return nil
}

func (r *run) number() error {
	start := r.pos
	for {
		b, ok := r.at(r.pos)
		if !ok {
			return nil
		}
		switch c := b; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			r.pos++
		default:
			if r.pos == start {
				return r.errf("invalid number")
			}
			return nil
		}
	}
}

package rsonpath

import (
	"context"
	"errors"
	"fmt"

	"rsonpath/internal/dom"
	"rsonpath/internal/errs"
	"rsonpath/internal/input"
)

// This file is the hardened-execution boundary of the public API: the typed
// failure vocabulary (malformed input, resource limits, cancellation,
// contained internal faults), the conversion of every internal error shape
// to it, and the panic guard wrapped around every public entry point.
//
// The failure model — what is detected where, and which detections are
// exact versus best-effort — is documented in DESIGN.md §9.

// ErrMalformed is the sentinel matched (via errors.Is) by every
// *MalformedError.
var ErrMalformed = errors.New("rsonpath: malformed JSON input")

// ErrLimitExceeded is the sentinel matched (via errors.Is) by every
// *LimitError.
var ErrLimitExceeded = errors.New("rsonpath: resource limit exceeded")

// ErrCanceled is the sentinel wrapped by errors returned from the
// RunReaderContext family when the context is canceled or its deadline
// expires; the context's own error is wrapped alongside it, so
// errors.Is(err, context.Canceled) also works.
var ErrCanceled = errors.New("rsonpath: run canceled")

// DefaultMaxDepth is the document-nesting bound applied when WithMaxDepth
// is not given: deep enough for any realistic document, shallow enough that
// no engine can be driven into unbounded stack or bitmap growth by
// pathological input (e.g. a megabyte of '[').
const DefaultMaxDepth = 10000

// MalformedError reports input that cannot be a well-formed JSON document.
// It matches ErrMalformed via errors.Is. Offsets are exact on EngineDOM and
// the strict baselines; the skipping engines report the first position at
// which the document is known to be broken, which may trail the true defect
// (best-effort detection, never a false accept of the detected classes —
// see DESIGN.md §9).
type MalformedError struct {
	// Offset is the byte offset the malformation was detected at.
	Offset int
	// Kind is a short stable description: "unterminated document",
	// "mismatched closer", "trailing content", "unterminated string", ...
	Kind string

	sentinel error // the detecting engine's internal sentinel, may be nil
}

func (e *MalformedError) Error() string {
	return fmt.Sprintf("rsonpath: malformed JSON input: %s at offset %d", e.Kind, e.Offset)
}

// Unwrap matches ErrMalformed and the detecting engine's own sentinel.
func (e *MalformedError) Unwrap() []error {
	if e.sentinel != nil {
		return []error{ErrMalformed, e.sentinel}
	}
	return []error{ErrMalformed}
}

// LimitError reports a configured resource limit being exceeded: the run
// was aborted to protect the caller, not because the input is necessarily
// malformed. It matches ErrLimitExceeded via errors.Is.
type LimitError struct {
	What   string // "depth", "matches", or "document bytes"
	Max    int    // the configured limit
	Offset int    // byte offset at which the limit tripped; -1 if unknown
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("rsonpath: %s limit %d exceeded at offset %d", e.What, e.Max, e.Offset)
}

// Unwrap matches ErrLimitExceeded.
func (e *LimitError) Unwrap() error { return ErrLimitExceeded }

// InternalError reports a panic inside the library contained at the public
// API boundary: a bug in an engine degraded to an error instead of a caller
// crash. The Engine field names the engine that was running; Offset is the
// byte position if the fault carried one, -1 otherwise.
type InternalError struct {
	Engine string
	Offset int
	Cause  string
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("rsonpath: internal error in engine %s: %s", e.Engine, e.Cause)
}

// WithMaxDepth bounds the document nesting a run will walk; deeper input
// aborts with a *LimitError. The default is DefaultMaxDepth; negative
// values disable the bound entirely (not recommended on untrusted input).
func WithMaxDepth(n int) Option {
	return func(c *config) { c.maxDepth = n }
}

// WithMaxMatches bounds the number of matches a single run may emit; the
// run aborts with a *LimitError when one more match is found. 0 (the
// default) or negative disables the bound. Matches already emitted before
// the abort have been delivered to the callback.
func WithMaxMatches(n int) Option {
	return func(c *config) { c.maxMatches = n }
}

// WithMaxDocBytes bounds the document size a run will accept: in-memory
// documents are checked up front, streamed documents at window-refill
// granularity, aborting with a *LimitError. 0 (the default) or negative
// disables the bound.
func WithMaxDocBytes(n int) Option {
	return func(c *config) { c.maxDocBytes = n }
}

// limits is the resolved triple carried by Query and QuerySet; zero values
// mean "disabled" (the WithMaxDepth default is resolved at Compile time).
type limits struct {
	maxDepth    int
	maxMatches  int
	maxDocBytes int
}

// resolve translates option values (0 = default, negative = unlimited) to
// enforcement values (0 = unlimited).
func (c *config) resolveLimits() limits {
	l := limits{
		maxDepth:    c.maxDepth,
		maxMatches:  c.maxMatches,
		maxDocBytes: c.maxDocBytes,
	}
	if l.maxDepth == 0 {
		l.maxDepth = DefaultMaxDepth
	}
	if l.maxDepth < 0 {
		l.maxDepth = 0
	}
	if l.maxMatches < 0 {
		l.maxMatches = 0
	}
	if l.maxDocBytes < 0 {
		l.maxDocBytes = 0
	}
	return l
}

// checkDocBytes is the up-front size check for in-memory documents.
func (l limits) checkDocBytes(n int) error {
	if l.maxDocBytes > 0 && n > l.maxDocBytes {
		return &LimitError{What: "document bytes", Max: l.maxDocBytes, Offset: l.maxDocBytes}
	}
	return nil
}

// abortRun carries a typed error out of an emit callback through the
// engine's stack; guardRun converts it back to an ordinary return value.
// Engines keep no state across runs, so abandoning a run mid-flight is
// safe.
type abortRun struct{ err error }

// limitEmit wraps an emit callback with the match-count limit: the first
// maxMatches matches are delivered, and finding one more aborts the run
// with a *LimitError.
func (l limits) limitEmit(emit func(int)) func(int) {
	if l.maxMatches <= 0 {
		return emit
	}
	n := 0
	max := l.maxMatches
	return func(pos int) {
		if n >= max {
			panic(abortRun{errs.MatchesLimit(max, pos)})
		}
		n++
		emit(pos)
	}
}

// limitEmit2 is limitEmit for the two-argument QuerySet callback; the limit
// applies to the total across all queries in the set.
func (l limits) limitEmit2(emit func(query, pos int)) func(query, pos int) {
	if l.maxMatches <= 0 {
		return emit
	}
	n := 0
	max := l.maxMatches
	return func(query, pos int) {
		if n >= max {
			panic(abortRun{errs.MatchesLimit(max, pos)})
		}
		n++
		emit(query, pos)
	}
}

// guardRun executes one run with panic containment and error typing: fn's
// error is converted to the public vocabulary, an abortRun panic becomes
// its carried error, and any other panic — a library bug — is contained as
// an *InternalError instead of crashing the caller.
func guardRun(engine string, fn func() error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if a, ok := r.(abortRun); ok {
			err = convertErr(a.err)
			return
		}
		ie := &InternalError{Engine: engine, Offset: -1, Cause: fmt.Sprint(r)}
		if fault, ok := r.(*input.Error); ok {
			ie.Offset = fault.Off
		}
		err = ie
	}()
	return convertErr(fn())
}

// convertErr maps the internal failure vocabulary to the public one. It is
// deliberately the single funnel every public entry point returns through.
func convertErr(err error) error {
	if err == nil {
		return nil
	}
	var m *errs.Malformed
	if errors.As(err, &m) {
		return &MalformedError{Offset: m.Offset, Kind: m.Kind, sentinel: m.Sentinel}
	}
	var se *dom.SyntaxError
	if errors.As(err, &se) {
		return &MalformedError{Offset: se.Offset, Kind: se.Msg}
	}
	var l *errs.Limit
	if errors.As(err, &l) {
		return &LimitError{What: l.What, Max: l.Max, Offset: l.Offset}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

package rsonpath

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"rsonpath/internal/dom"
	"rsonpath/internal/input"
	"rsonpath/internal/supervisor"
)

// This file is the public face of the execution supervisor (DESIGN.md §10):
// watchdog deadlines and the degradation ladder from the accelerated
// engines down to the DOM oracle. The generic machinery lives in
// internal/supervisor; here it is adapted to Query and QuerySet runs.

// Outcome records how a supervised run settled: how many engine runs it
// took, which engine produced the delivered result, and — when the
// degradation ladder ran — the primary engine's terminal error. A serving
// stack watches FallbackReason: a non-nil value with a nil run error means
// the query was answered, but by the slow trusted path, and the primary's
// fault deserves a report.
type Outcome struct {
	// Attempts is the total number of engine runs: 1, or 2 when the
	// fallback ran.
	Attempts int
	// Engine names the engine that produced the final result (or final
	// error): the query's own engine, or "dom" after degradation.
	Engine string
	// FallbackReason is the primary engine's terminal error when the
	// fallback ran, nil otherwise. It is always an *InternalError (the only
	// degradable class).
	FallbackReason error
	// Duration is the wall-clock time of the whole supervised run, fallback
	// included.
	Duration time.Duration
}

// Degraded reports whether the result was produced by the fallback engine.
func (o Outcome) Degraded() bool { return o.FallbackReason != nil }

// FallbackMode selects when a supervised run degrades to the DOM oracle.
type FallbackMode int

const (
	// FallbackOnInternalError (the default) re-runs the query on the DOM
	// oracle when the primary engine fails with an *InternalError — a
	// contained panic or another internal fault. Malformed input, resource
	// limits, and cancellation are never laddered: those are the input's or
	// the caller's verdict, and the oracle would only repeat it slowly.
	FallbackOnInternalError FallbackMode = iota
	// FallbackOff disables the degradation ladder; internal errors surface
	// to the caller as they do on the unsupervised entry points.
	FallbackOff
)

// WithTimeout arms a watchdog deadline on every run of the query: streaming
// runs observe it within one window refill (even against a blocked reader),
// in-memory runs on streaming engines within one stream window, and the
// lines family applies it per record. The run returns an error wrapping
// ErrCanceled and context.DeadlineExceeded. EngineDOM runs, which are
// atomic, check the deadline only at entry. 0 (the default) disables the
// watchdog.
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithFallback selects the degradation-ladder mode for the supervised entry
// points (RunSupervised, RunReaderSupervised, and the lines family). The
// default is FallbackOnInternalError.
//
// Note for EngineSki: its wildcard deliberately skips object fields, so a
// degraded run reports the oracle's (standard) answer, not ski's. Callers
// pinning ski's restricted semantics should pass FallbackOff.
func WithFallback(m FallbackMode) Option {
	return func(c *config) { c.fallback = m }
}

// supervision is the resolved supervisor configuration carried by Query and
// QuerySet. It is comparable, so QueryCache keys on it directly.
type supervision struct {
	timeout  time.Duration
	fallback FallbackMode
}

func (c *config) resolveSupervision() supervision {
	return supervision{timeout: c.timeout, fallback: c.fallback}
}

// policy translates the supervision config for internal/supervisor.
func (s supervision) policy() supervisor.Policy {
	return supervisor.Policy{
		Timeout:     s.timeout,
		FallbackOff: s.fallback == FallbackOff,
		Degradable:  degradable,
	}
}

// degradable classifies the errors that trigger the ladder: internal faults
// only. Malformed input and limits are authoritative; cancellation is the
// caller's decision.
func degradable(err error) bool {
	var ie *InternalError
	return errors.As(err, &ie)
}

// runCtx is one in-memory run that observes ctx. Documents larger than one
// stream window on a streaming engine run through the buffered-input path
// over a ctxReader, so cancellation and deadlines are honored within one
// window refill; smaller documents — and EngineDOM, whose parse is atomic —
// are checked at entry only (the whole run already fits "within one
// window").
func (q *Query) runCtx(ctx context.Context, data []byte, emit func(pos int)) error {
	if err := q.limits.checkDocBytes(len(data)); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return convertErr(err)
	}
	label := q.kind.String()
	sr, ok := q.run.(inputRunner)
	window := q.window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	if !ok || ctx.Done() == nil || len(data) <= window {
		return guardRun(label, func() error {
			return q.run.Run(data, q.limits.limitEmit(emit))
		})
	}
	cr := newCtxReader(ctx, bytes.NewReader(data))
	defer cr.stop()
	in := input.NewBuffered(cr, q.window)
	defer in.Release()
	if q.limits.maxDocBytes > 0 {
		in.LimitDocBytes(q.limits.maxDocBytes)
	}
	return guardRun(label, func() error {
		return sr.RunInput(in, q.limits.limitEmit(emit))
	})
}

// oracleAttempt builds the fallback attempt for one in-memory document, or
// nil when the query has no separate oracle (it is already EngineDOM).
func (q *Query) oracleAttempt(data []byte, buf *[]int) *supervisor.Attempt {
	if q.oracle == nil {
		return nil
	}
	return &supervisor.Attempt{Engine: "dom", Run: func(actx context.Context) error {
		*buf = (*buf)[:0]
		if err := actx.Err(); err != nil {
			return convertErr(err)
		}
		return guardRun("dom", func() error {
			return q.oracle.Run(data, q.limits.limitEmit(func(pos int) { *buf = append(*buf, pos) }))
		})
	}}
}

// runSupervisedOffsets is the shared core of the supervised in-memory entry
// points: it runs the ladder and returns the settled attempt's offsets
// (reusing scratch for the buffer).
func (q *Query) runSupervisedOffsets(ctx context.Context, data []byte, scratch []int) ([]int, Outcome, error) {
	buf := scratch[:0]
	primary := supervisor.Attempt{Engine: q.kind.String(), Run: func(actx context.Context) error {
		buf = buf[:0]
		return q.runCtx(actx, data, func(pos int) { buf = append(buf, pos) })
	}}
	so, err := supervisor.Run(ctx, q.sup.policy(), primary, q.oracleAttempt(data, &buf))
	return buf, Outcome(so), err
}

// deliverOffsets replays a settled run's matches into the caller's emit,
// containing a panicking callback the same way a direct run would. A run
// that settled on an internal fault delivers nothing — output from a
// faulted engine cannot be trusted — while a tripped limit or malformed
// input delivers the valid prefix, matching the direct entry points.
func deliverOffsets(engine string, offs []int, emit func(pos int)) error {
	if len(offs) == 0 {
		return nil
	}
	return guardRun(engine, func() error {
		for _, pos := range offs {
			emit(pos)
		}
		return nil
	})
}

// RunSupervised is Run under the execution supervisor: the run observes ctx
// and the configured deadline (WithTimeout), and an internal fault in the
// primary engine transparently re-runs the query on the DOM oracle
// (WithFallback to opt out). Matches are delivered to emit only once the
// run settles — exactly once, in document order, from whichever engine
// produced the final result — so a failed primary attempt never leaks
// partial output. The Outcome reports how the run settled and is valid even
// when the error is non-nil.
func (q *Query) RunSupervised(ctx context.Context, data []byte, emit func(pos int)) (Outcome, error) {
	offs, oc, err := q.runSupervisedOffsets(ctx, data, nil)
	if err != nil && degradable(err) {
		offs = nil
	}
	derr := deliverOffsets(oc.Engine, offs, emit)
	if err == nil {
		err = derr
	}
	return oc, err
}

// closeIfCloser closes r when the source handed us something closable.
func closeIfCloser(r io.Reader) {
	if c, ok := r.(io.Closer); ok {
		c.Close()
	}
}

// readAllForOracle buffers a fresh copy of the document for a DOM fallback
// run, respecting the configured document-size limit.
func (q *Query) readAllForOracle(open func() (io.Reader, error)) ([]byte, error) {
	r, err := open()
	if err != nil {
		return nil, fmt.Errorf("rsonpath: fallback could not reopen the input: %w", err)
	}
	defer closeIfCloser(r)
	if q.limits.maxDocBytes > 0 {
		data, err := io.ReadAll(io.LimitReader(r, int64(q.limits.maxDocBytes)+1))
		if err != nil {
			return nil, err
		}
		if err := q.limits.checkDocBytes(len(data)); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(r)
}

// RunReaderSupervised is RunReader under the execution supervisor. Because
// a stream cannot be rewound, each attempt — the first run and the DOM
// fallback — opens a fresh reader via open; if the reader it returns is an
// io.Closer it is closed when the attempt ends. The
// fallback buffers the whole document (the oracle cannot stream), and
// matches are delivered only once the run settles, so memory is bounded by
// the stream window plus the match offsets — or the document size if the
// ladder runs. Engines that cannot stream return ErrStreamingUnsupported;
// use RunSupervised with the buffered document instead.
func (q *Query) RunReaderSupervised(ctx context.Context, open func() (io.Reader, error), emit func(pos int)) (Outcome, error) {
	label := q.kind.String()
	sr, ok := q.run.(inputRunner)
	if !ok {
		return Outcome{Engine: label}, ErrStreamingUnsupported
	}
	var buf []int
	primary := supervisor.Attempt{Engine: label, Run: func(actx context.Context) error {
		buf = buf[:0]
		if err := actx.Err(); err != nil {
			return convertErr(err)
		}
		r, err := open()
		if err != nil {
			return err
		}
		defer closeIfCloser(r)
		cr := newCtxReader(actx, r)
		defer cr.stop()
		in := input.NewBuffered(cr, q.window)
		defer in.Release()
		if q.limits.maxDocBytes > 0 {
			in.LimitDocBytes(q.limits.maxDocBytes)
		}
		return guardRun(label, func() error {
			return sr.RunInput(in, q.limits.limitEmit(func(pos int) { buf = append(buf, pos) }))
		})
	}}
	var fb *supervisor.Attempt
	if q.oracle != nil {
		fb = &supervisor.Attempt{Engine: "dom", Run: func(actx context.Context) error {
			buf = buf[:0]
			if err := actx.Err(); err != nil {
				return convertErr(err)
			}
			data, err := q.readAllForOracle(open)
			if err != nil {
				return err
			}
			return guardRun("dom", func() error {
				return q.oracle.Run(data, q.limits.limitEmit(func(pos int) { buf = append(buf, pos) }))
			})
		}}
	}
	so, err := supervisor.Run(ctx, q.sup.policy(), primary, fb)
	oc := Outcome(so)
	if err != nil && degradable(err) {
		buf = nil
	}
	derr := deliverOffsets(oc.Engine, buf, emit)
	if err == nil {
		err = derr
	}
	return oc, err
}

// setMatch is one (query, offset) pair buffered by a supervised set run.
type setMatch struct {
	query, pos int
}

// runCtx mirrors Query.runCtx for the shared one-pass driver.
func (s *QuerySet) runCtx(ctx context.Context, data []byte, emit func(query, pos int)) error {
	if err := s.limits.checkDocBytes(len(data)); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return convertErr(err)
	}
	window := s.window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	if ctx.Done() == nil || len(data) <= window {
		return guardRun("queryset", func() error {
			return s.set.Run(data, s.limits.limitEmit2(emit))
		})
	}
	cr := newCtxReader(ctx, bytes.NewReader(data))
	defer cr.stop()
	in := input.NewBuffered(cr, s.window)
	defer in.Release()
	if s.limits.maxDocBytes > 0 {
		in.LimitDocBytes(s.limits.maxDocBytes)
	}
	return guardRun("queryset", func() error {
		return s.set.RunInput(in, s.limits.limitEmit2(emit))
	})
}

// runOracle evaluates every member query on the DOM oracle over one parse
// of the document and replays the union in the shared pass's order: by
// offset, then by query index. The match-count limit applies to the replay,
// so a degraded run honors the same bound as the shared pass.
func (s *QuerySet) runOracle(data []byte, buf *[]setMatch) error {
	return guardRun("dom", func() error {
		root, err := dom.ParseLimit(data, s.limits.maxDepth)
		if err != nil {
			return err
		}
		var all []setMatch
		for qi, parsed := range s.parsed {
			for _, n := range dom.Eval(root, parsed, dom.NodeSemantics) {
				all = append(all, setMatch{query: qi, pos: n.Start})
			}
		}
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].pos != all[j].pos {
				return all[i].pos < all[j].pos
			}
			return all[i].query < all[j].query
		})
		emit := s.limits.limitEmit2(func(query, pos int) {
			*buf = append(*buf, setMatch{query: query, pos: pos})
		})
		for _, m := range all {
			emit(m.query, m.pos)
		}
		return nil
	})
}

// runSupervisedMatches is the shared core of the supervised set entry
// points, returning the settled attempt's (query, offset) pairs.
func (s *QuerySet) runSupervisedMatches(ctx context.Context, data []byte, scratch []setMatch) ([]setMatch, Outcome, error) {
	buf := scratch[:0]
	primary := supervisor.Attempt{Engine: "queryset", Run: func(actx context.Context) error {
		buf = buf[:0]
		return s.runCtx(actx, data, func(query, pos int) { buf = append(buf, setMatch{query: query, pos: pos}) })
	}}
	fb := &supervisor.Attempt{Engine: "dom", Run: func(actx context.Context) error {
		buf = buf[:0]
		if err := actx.Err(); err != nil {
			return convertErr(err)
		}
		return s.runOracle(data, &buf)
	}}
	so, err := supervisor.Run(ctx, s.sup.policy(), primary, fb)
	return buf, Outcome(so), err
}

// deliverMatches is deliverOffsets for the two-argument set callback.
func deliverMatches(engine string, matches []setMatch, emit func(query, pos int)) error {
	if len(matches) == 0 {
		return nil
	}
	return guardRun(engine, func() error {
		for _, m := range matches {
			emit(m.query, m.pos)
		}
		return nil
	})
}

// RunSupervised is QuerySet.Run under the execution supervisor: the shared
// one-pass driver observes ctx and the configured deadline, and an internal
// fault degrades to per-query DOM-oracle runs whose union is replayed in
// the shared pass's order (by offset, then query index). Matches are
// delivered to emit only once the run settles; the Outcome reports which
// path produced them.
func (s *QuerySet) RunSupervised(ctx context.Context, data []byte, emit func(query, pos int)) (Outcome, error) {
	matches, oc, err := s.runSupervisedMatches(ctx, data, nil)
	if err != nil && degradable(err) {
		matches = nil
	}
	derr := deliverMatches(oc.Engine, matches, emit)
	if err == nil {
		err = derr
	}
	return oc, err
}

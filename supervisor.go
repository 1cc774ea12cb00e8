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

// run runs the ladder under the configured policy, translating the bare
// context error of an attempt that could not start.
func (s supervision) run(ctx context.Context, primary supervisor.Attempt, fallback *supervisor.Attempt) (Outcome, error) {
	so, err := supervisor.Run(ctx, supervisor.Policy{
		Timeout:     s.timeout,
		FallbackOff: s.fallback == FallbackOff,
		Degradable:  degradable,
	}, primary, fallback)
	if err == context.Canceled || err == context.DeadlineExceeded {
		err = convertErr(err)
	}
	return Outcome(so), err
}

// degradable classifies the errors that trigger the ladder: internal faults
// only. Malformed input and limits are authoritative; cancellation is the
// caller's decision.
func degradable(err error) bool {
	var ie *InternalError
	return errors.As(err, &ie)
}

// windowed reports whether an in-memory run over n bytes, with the given
// stream window (≤ 0: DefaultStreamWindow), observes its context mid-run.
// Documents larger than one window run through the buffered-input path over
// ctxBytes, so cancellation and deadlines are honored within one window
// refill; smaller documents — and EngineDOM, whose parse is atomic — are
// checked at entry only (the whole run already fits "within one window").
func windowed(window, n int) bool {
	if window <= 0 {
		window = DefaultStreamWindow
	}
	return n > window
}

// windowed is the Query's windowed: only a streaming engine has a window.
func (q *Query) windowed(n int) bool {
	_, ok := q.run.(inputRunner)
	return ok && windowed(q.window, n)
}

// runCtx is one in-memory run that observes ctx: at entry, and at every
// window refill when the run is windowed.
func (q *Query) runCtx(ctx context.Context, data []byte, emit func(pos int)) error {
	if err := q.limits.checkDocBytes(len(data)); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return convertErr(err)
	}
	if ctx.Done() != nil && q.windowed(len(data)) {
		return q.runWindowed(ctxBytes{ctx, bytes.NewReader(data)}, emit)
	}
	return guardRun(q.kind.String(), func() error {
		return q.run.Run(data, q.limits.limitEmit(emit))
	})
}

// oracleAttempt builds the fallback attempt for one in-memory document, or
// nil when the query has no separate oracle (it is already EngineDOM). The
// attempt appends to *buf after its first base entries.
func (q *Query) oracleAttempt(data []byte, buf *[]int, base int) *supervisor.Attempt {
	if q.oracle == nil {
		return nil
	}
	return &supervisor.Attempt{Engine: "dom", Atomic: true, Run: func(context.Context) error {
		*buf = (*buf)[:base]
		return guardRun("dom", func() error {
			return q.oracle.Run(data, q.limits.limitEmit(func(pos int) { *buf = append(*buf, pos) }))
		})
	}}
}

// runSupervisedOffsets is the shared core of the supervised in-memory entry
// points: it runs the ladder and appends the settled attempt's offsets to
// dst.
func (q *Query) runSupervisedOffsets(ctx context.Context, data []byte, dst []int) ([]int, Outcome, error) {
	buf, base := dst, len(dst)
	primary := supervisor.Attempt{Engine: q.kind.String(), Atomic: !q.windowed(len(data)), Run: func(actx context.Context) error {
		buf = buf[:base]
		return q.runCtx(actx, data, func(pos int) { buf = append(buf, pos) })
	}}
	oc, err := q.sup.run(ctx, primary, q.oracleAttempt(data, &buf, base))
	return buf, oc, err
}

// deliver replays a settled run's matches into the caller's emit,
// containing a panicking callback the same way a direct run would. A run
// that settled on an internal fault delivers nothing — output from a
// faulted engine cannot be trusted — while a tripped limit or malformed
// input delivers the valid prefix, matching the direct entry points.
func deliver[M any](oc Outcome, err error, matches []M, emit func(M)) (Outcome, error) {
	if len(matches) == 0 || err != nil && degradable(err) {
		return oc, err
	}
	derr := guardRun(oc.Engine, func() error {
		for _, m := range matches {
			emit(m)
		}
		return nil
	})
	if err == nil {
		err = derr
	}
	return oc, err
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
	return deliver(oc, err, offs, emit)
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
		r = io.LimitReader(r, int64(q.limits.maxDocBytes)+1)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return data, q.limits.checkDocBytes(len(data))
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
	if _, ok := q.run.(inputRunner); !ok {
		return Outcome{Engine: q.kind.String()}, ErrStreamingUnsupported
	}
	var buf []int
	primary := supervisor.Attempt{Engine: q.kind.String(), Run: func(actx context.Context) error {
		buf = buf[:0]
		r, err := open()
		if err != nil {
			return err
		}
		defer closeIfCloser(r)
		cr := newCtxReader(actx, r)
		defer cr.stop()
		return q.runWindowed(cr, func(pos int) { buf = append(buf, pos) })
	}}
	var fb *supervisor.Attempt
	if q.oracle != nil {
		fb = &supervisor.Attempt{Engine: "dom", Atomic: true, Run: func(ctx context.Context) error {
			buf = buf[:0]
			data, err := q.readAllForOracle(open)
			if err != nil {
				return err
			}
			return q.oracleAttempt(data, &buf, 0).Run(ctx)
		}}
	}
	oc, err := q.sup.run(ctx, primary, fb)
	return deliver(oc, err, buf, emit)
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
	if ctx.Done() != nil && windowed(s.window, len(data)) {
		return s.runWindowed(ctxBytes{ctx, bytes.NewReader(data)}, emit)
	}
	return guardRun("queryset", func() error {
		return s.set.Run(data, s.limits.limitEmit2(emit))
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
// points, appending the settled attempt's (query, offset) pairs to dst.
func (s *QuerySet) runSupervisedMatches(ctx context.Context, data []byte, dst []setMatch) ([]setMatch, Outcome, error) {
	buf, base := dst, len(dst)
	primary := supervisor.Attempt{Engine: "queryset", Atomic: !windowed(s.window, len(data)), Run: func(actx context.Context) error {
		buf = buf[:base]
		return s.runCtx(actx, data, func(query, pos int) { buf = append(buf, setMatch{query: query, pos: pos}) })
	}}
	fb := &supervisor.Attempt{Engine: "dom", Atomic: true, Run: func(context.Context) error {
		buf = buf[:base]
		return s.runOracle(data, &buf)
	}}
	oc, err := s.sup.run(ctx, primary, fb)
	return buf, oc, err
}

// RunSupervised is QuerySet.Run under the execution supervisor: the shared
// one-pass driver observes ctx and the configured deadline, and an internal
// fault degrades to per-query DOM-oracle runs whose union is replayed in
// the shared pass's order (by offset, then query index). Matches are
// delivered to emit only once the run settles; the Outcome reports which
// path produced them.
func (s *QuerySet) RunSupervised(ctx context.Context, data []byte, emit func(query, pos int)) (Outcome, error) {
	matches, oc, err := s.runSupervisedMatches(ctx, data, nil)
	return deliver(oc, err, matches, func(m setMatch) { emit(m.query, m.pos) })
}

package rsonpath

import (
	"bytes"
	"context"
	"io"

	"rsonpath/internal/input"
)

// Context-aware streaming: RunReaderContext and QuerySet.RunReaderContext
// observe ctx at every window refill — the natural cancellation points of a
// window-bounded run — and return within one refill of cancellation, with
// the error wrapping both ErrCanceled and the context's own error.
//
// The underlying reader is driven from a helper goroutine so that a Read
// blocked on a stalled source cannot outlive the caller's patience: on
// cancellation the run returns immediately and the goroutine winds down as
// soon as its in-flight Read completes (bytes read after abandonment are
// discarded; the run is over).

// readResult is one completed Read of the pump goroutine.
type readResult struct {
	data []byte
	err  error
}

// ctxReader adapts an io.Reader to a context: Read returns ctx.Err() as
// soon as the context is done, even while the underlying reader blocks.
type ctxReader struct {
	ctx context.Context
	req chan int        // capacity requests to the pump
	res chan readResult // completed reads, buffered so the pump never leaks
	err error           // sticky error after cancellation
	// pumpDone is closed when the pump goroutine exits; the goroutine-leak
	// regression tests wait on it to prove the pump winds down within one
	// read of stop().
	pumpDone chan struct{}
}

func newCtxReader(ctx context.Context, r io.Reader) *ctxReader {
	c := &ctxReader{
		ctx:      ctx,
		req:      make(chan int),
		res:      make(chan readResult, 1),
		pumpDone: make(chan struct{}),
	}
	go c.pump(r)
	return c
}

// pump owns the underlying reader and a private buffer. The consumer copies
// a result out before issuing the next request, so the buffer is never
// written while read — the request/response channels provide the
// happens-before edges.
func (c *ctxReader) pump(r io.Reader) {
	defer close(c.pumpDone)
	var buf []byte
	for size := range c.req {
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		n, err := r.Read(buf[:size])
		c.res <- readResult{data: buf[:n], err: err}
	}
}

// stop releases the pump goroutine once no further Reads will be issued.
func (c *ctxReader) stop() { close(c.req) }

func (c *ctxReader) Read(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	select {
	case <-c.ctx.Done():
		c.err = c.ctx.Err()
		return 0, c.err
	case c.req <- len(p):
	}
	select {
	case <-c.ctx.Done():
		c.err = c.ctx.Err()
		return 0, c.err
	case r := <-c.res:
		n := copy(p, r.data)
		return n, r.err
	}
}

// ctxBytes reads a document held in memory under ctx: Read fails with the
// context's error once ctx is done. Memory never blocks, so unlike
// ctxReader it needs no pump goroutine, and nothing reads the document
// after the run returns — the caller may reuse the buffer at once.
type ctxBytes struct {
	ctx context.Context
	*bytes.Reader
}

func (r ctxBytes) Read(p []byte) (int, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, err
	}
	return r.Reader.Read(p)
}

// runWindowed runs the streaming engine over r, which observes the run's
// context at every window refill (a ctxReader or ctxBytes). The query's
// engine must stream.
func (q *Query) runWindowed(r io.Reader, emit func(pos int)) error {
	in := input.NewBuffered(r, q.window)
	defer in.Release()
	if q.limits.maxDocBytes > 0 {
		in.LimitDocBytes(q.limits.maxDocBytes)
	}
	return guardRun(q.kind.String(), func() error {
		return q.run.(inputRunner).RunInput(in, q.limits.limitEmit(emit))
	})
}

// runWindowed mirrors Query.runWindowed for the shared one-pass driver.
func (s *QuerySet) runWindowed(r io.Reader, emit func(query, pos int)) error {
	in := input.NewBuffered(r, s.window)
	defer in.Release()
	if s.limits.maxDocBytes > 0 {
		in.LimitDocBytes(s.limits.maxDocBytes)
	}
	return guardRun("queryset", func() error {
		return s.set.RunInput(in, s.limits.limitEmit2(emit))
	})
}

// RunContext is Run with cancellation: matches are emitted incrementally,
// during the scan, and the run observes ctx — at entry for documents within
// one stream window (whose whole run is "within one refill"), at every
// window boundary for larger ones. Unlike RunSupervised, which buffers
// matches until the degradation ladder settles, RunContext delivers each
// match the moment the engine finds it; that makes it the entry point for
// streamed serving, where output leaves the process before the run ends and
// a transparent re-run is impossible by construction. A configured
// WithTimeout applies on top of ctx.
func (q *Query) RunContext(ctx context.Context, data []byte, emit func(pos int)) error {
	if q.sup.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.sup.timeout)
		defer cancel()
	}
	return q.runCtx(ctx, data, emit)
}

// RunReaderContext is RunReader with cancellation: the run observes ctx at
// every window refill and aborts with an error wrapping ErrCanceled (and
// the context's own error) when ctx is done — even if the underlying reader
// is blocked. Matches emitted before the cancellation have been delivered.
func (q *Query) RunReaderContext(ctx context.Context, r io.Reader, emit func(pos int)) error {
	if _, ok := q.run.(inputRunner); !ok {
		return ErrStreamingUnsupported
	}
	if q.sup.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.sup.timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return convertErr(err)
	}
	cr := newCtxReader(ctx, r)
	defer cr.stop()
	return q.runWindowed(cr, emit)
}

// RunReaderContext is QuerySet.RunReader with cancellation, with the same
// contract as Query.RunReaderContext.
func (s *QuerySet) RunReaderContext(ctx context.Context, r io.Reader, emit func(query, pos int)) error {
	if s.sup.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.sup.timeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return convertErr(err)
	}
	cr := newCtxReader(ctx, r)
	defer cr.stop()
	return s.runWindowed(cr, emit)
}

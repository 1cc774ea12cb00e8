package rsonpath

import (
	"context"
	"io"
	"runtime"
	"sync"
)

// This file is the concurrency half of the execution supervisor (DESIGN.md
// §10): a bounded worker pool over JSON Lines with per-record fault
// isolation, in-order delivery, and leak-free cancellation.

// runLinesParallel is the shared worker pool behind the RunLinesParallel
// entry points. A dispatcher goroutine cuts the input into chunks and
// publishes each twice: to work (the pool's feed) and to ordered (the
// delivery queue, whose capacity of 2×workers bounds the chunks in flight —
// when the consumer lags, the dispatcher stalls rather than buffer the
// stream). Workers evaluate chunks concurrently; the caller's goroutine
// drains ordered, waits for each chunk to settle, and delivers — so results
// arrive in input order no matter which worker finished first. A delivery
// error or a panicking visit cancels the pool: the dispatcher stops
// reading, in-flight evaluations observe the cancellation, and every
// goroutine is joined before return (or winds down behind the panic).
func runLinesParallel[M any](r io.Reader, workers int, pool *chunkPool[M], run recordRun[M], visit hitVisit[M]) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	work := make(chan *lineChunk[M])
	ordered := make(chan *lineChunk[M], 2*workers)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				c.eval(ctx, run)
				c.done <- struct{}{}
			}
		}()
	}

	// rerr is set before ordered closes, so the drain below may read it; on
	// cancellation it stays nil, as the consumer's verdict is what matters.
	var rerr error
	go func() {
		defer close(ordered)
		defer close(work)
		k := chunker[M]{r: r, pool: pool}
		for {
			c, err := k.read()
			if c == nil {
				rerr = err
				return
			}
			select {
			case work <- c:
			case <-ctx.Done():
				return
			}
			select {
			case ordered <- c:
			case <-ctx.Done():
				return // a worker has c, but no one waits for it
			}
		}
	}()

	var verr error
	line := 0
	for c := range ordered {
		<-c.done
		if verr == nil {
			if verr = c.deliver(line, visit); verr != nil {
				cancel()
			}
		}
		line += c.lines
		pool.put(c)
	}
	wg.Wait()
	if verr != nil {
		return verr
	}
	return rerr
}

// RunLinesParallel is RunLines evaluated by a pool of workers: chunks of
// records are read in input order, evaluated concurrently, and delivered to
// visit in input order with the same per-record supervision as RunLines
// (deadline per record, degradation ladder per record, a bad record skipped
// without disturbing its neighbours). At most 2×workers chunks wait for
// delivery, each bounded by max(64 KiB, the largest record), so an
// unbounded stream never accumulates in memory even when visit is slow.
// visit returning a non-nil error stops the scan — remaining in-flight
// records are abandoned, every worker is joined before return, and the
// error is returned verbatim. workers ≤ 0 selects GOMAXPROCS. Unlike
// RunLines, visit runs on the calling goroutine while evaluation happens
// elsewhere; LineMatch.Record and friends remain valid only during the
// visit call.
func (q *Query) RunLinesParallel(r io.Reader, workers int, visit func(m LineMatch) error) error {
	return runLinesParallel(r, workers, &offsetChunks, q.runSupervisedOffsets, lineVisitor(visit))
}

// SetLineMatch describes the outcome of one newline-delimited record of a
// QuerySet lines scan.
type SetLineMatch struct {
	// Line is the 1-based record number (empty lines are skipped but
	// counted).
	Line int
	// Record is the raw record bytes; valid only during the visit call.
	Record []byte
	// Offsets are the match offsets within Record, indexed by query (as
	// passed to CompileSet); nil when the record failed. Valid only during
	// the visit call.
	Offsets [][]int
	// Err is non-nil when the record could not be evaluated; the scan skips
	// the record and continues.
	Err error
	// Outcome reports how the record's supervised evaluation settled. Valid
	// only during the visit call.
	Outcome *Outcome
}

// lineVisitor adapts visit to the hits of a set's chunks, regrouping each
// record's (query, offset) pairs by query into buffers reused from record
// to record; a query without matches reads nil.
func (s *QuerySet) lineVisitor(visit func(m SetLineMatch) error) hitVisit[setMatch] {
	bufs, offsets := make([][]int, s.Len()), make([][]int, s.Len())
	return func(line int, h *lineHit, matches []setMatch) error {
		m := SetLineMatch{Line: line, Record: h.record, Err: h.err, Outcome: &h.oc}
		if h.err == nil && len(matches) > 0 {
			for _, sm := range matches {
				bufs[sm.query] = append(bufs[sm.query], sm.pos)
			}
			for qi, b := range bufs {
				offsets[qi], bufs[qi] = nil, b[:0]
				if len(b) > 0 {
					offsets[qi] = b[:len(b):len(b)]
				}
			}
			m.Offsets = offsets
		}
		return visit(m)
	}
}

// RunLines streams newline-delimited JSON from r through the set's shared
// classification pass, one record at a time, with the same chunking,
// per-record supervision and visit contract as Query.RunLines: visit sees
// each record with at least one match, each failed record, and each
// degraded record.
func (s *QuerySet) RunLines(r io.Reader, visit func(m SetLineMatch) error) error {
	return runLines(r, &matchChunks, s.runSupervisedMatches, s.lineVisitor(visit))
}

// RunLinesParallel is QuerySet.RunLines evaluated by a pool of workers,
// with the same ordering, backpressure, and cancellation contract as
// Query.RunLinesParallel. workers ≤ 0 selects GOMAXPROCS.
func (s *QuerySet) RunLinesParallel(r io.Reader, workers int, visit func(m SetLineMatch) error) error {
	return runLinesParallel(r, workers, &matchChunks, s.runSupervisedMatches, s.lineVisitor(visit))
}

package rsonpath

import (
	"bytes"
	"context"
	"io"
	"slices"
	"sync"
)

// LineMatch describes the outcome of one newline-delimited record: either
// its matches, or the typed error that made the record unusable.
type LineMatch struct {
	// Line is the 1-based record number (empty lines are skipped but
	// counted).
	Line int
	// Record is the raw record bytes; valid only during the visit call.
	Record []byte
	// Offsets are the match offsets within Record, in document order. Like
	// Record, the slice is reused between records and is valid only during
	// the visit call; copy it to retain it.
	Offsets []int
	// Err is non-nil when the record could not be evaluated — typically a
	// *MalformedError (with offsets relative to the record) or a
	// *LimitError. The scan skips the bad record and continues with the
	// next one; matches emitted before the failure are not reported.
	Err error
	// Outcome reports how the record's supervised evaluation settled:
	// attempts taken, the engine that produced the result, and — when the
	// degradation ladder ran — the primary engine's fault. Valid only during
	// the visit call; copy the struct to retain it.
	Outcome *Outcome
}

// The lines family's unit of work is a chunk of whole records (DESIGN.md
// §10), read once into a pooled buffer, evaluated in place, and delivered
// in order: a scan's fixed costs are paid per chunk, and a record pays only
// its own supervised run.
const (
	chunkSize      = 64 << 10 // a fresh chunk buffer
	maxPooledChunk = 1 << 20  // larger buffers, grown for a long record, are not pooled
)

// recordRun is one record's supervised run, appending its matches to dst.
type recordRun[M any] func(ctx context.Context, record []byte, dst []M) ([]M, Outcome, error)

// hitVisit delivers one record a caller's visit sees.
type hitVisit[M any] func(line int, h *lineHit, matches []M) error

// lineChunk is one chunk and the results of its records.
type lineChunk[M any] struct {
	buf     []byte        // whole records; the last ends in a newline unless the input ended
	lines   int           // lines in buf, counted by eval
	hits    []lineHit     // the records visit sees, in order
	matches []M           // the hits' matches, back to back
	done    chan struct{} // parallel scans: one send once a worker has evaluated the chunk
}

// lineHit is a record visit sees: one that matched, failed, or degraded.
type lineHit struct {
	line   int // 1-based, counted from the chunk's first line
	record []byte
	lo, hi int // the record's matches are lineChunk.matches[lo:hi]
	err    error
	oc     Outcome
}

// chunkPool recycles chunks, buffers and result scratch included.
type chunkPool[M any] struct{ sync.Pool }

var (
	offsetChunks chunkPool[int]
	matchChunks  chunkPool[setMatch]
)

func (p *chunkPool[M]) get() *lineChunk[M] {
	if c, ok := p.Get().(*lineChunk[M]); ok {
		c.buf = c.buf[:0]
		return c
	}
	return &lineChunk[M]{buf: make([]byte, 0, chunkSize), done: make(chan struct{}, 1)}
}

func (p *chunkPool[M]) put(c *lineChunk[M]) {
	if cap(c.buf) <= maxPooledChunk {
		p.Put(c)
	}
}

// chunker cuts a JSON Lines stream into chunks. A raw newline cannot occur
// inside a JSON string, so on valid input a cut never splits a record.
type chunker[M any] struct {
	r    io.Reader
	pool *chunkPool[M]
	tail []byte // the partial record after the last cut, carried into the next chunk
	err  error  // what ended the stream: io.EOF or the reader's error
}

// read returns the next chunk, or nil and the reader's error (nil at EOF).
// A Read fills the buffer (≥ chunkSize) or comes back short, as a trickling
// source does, so the chunk is cut at the last newline after every Read
// that brings one; the rest carries over, and a record that fills the
// buffer grows it. At the end every byte left is a record: the records read
// before a reader error, a partial last one too, precede the error.
func (k *chunker[M]) read() (*lineChunk[M], error) {
	c := k.pool.get()
	buf := append(c.buf, k.tail...)
	k.tail = k.tail[:0]
	for k.err == nil {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		old := len(buf)
		var n int
		n, k.err = k.r.Read(buf[old:cap(buf)])
		buf = buf[:old+n]
		if i := bytes.LastIndexByte(buf[old:], '\n'); i >= 0 && k.err == nil {
			k.tail = append(k.tail, buf[old+i+1:]...)
			c.buf = buf[:old+i+1]
			return c, nil
		}
	}
	c.buf = buf
	if len(buf) > 0 {
		return c, nil
	}
	k.pool.put(c)
	if k.err == io.EOF {
		return nil, nil
	}
	return nil, k.err
}

// eval runs the chunk's records in place and keeps the ones visit sees. A
// record is a line trimmed of the whitespace JSON allows around a value
// (space, tab, carriage return; newline is the separator). An empty or
// blank line counts but is skipped; a final line without a newline is a
// record.
func (c *lineChunk[M]) eval(ctx context.Context, run recordRun[M]) {
	c.lines, c.hits, c.matches = 0, c.hits[:0], c.matches[:0]
	for rest := c.buf; len(rest) > 0; {
		c.lines++
		record := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			record, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if record = bytes.Trim(record, " \t\r"); len(record) == 0 {
			continue
		}
		lo := len(c.matches)
		matches, oc, err := run(ctx, record, c.matches)
		if err != nil {
			matches = matches[:lo]
		}
		c.matches = matches
		if err != nil || len(matches) > lo || oc.Degraded() {
			c.hits = append(c.hits, lineHit{line: c.lines, record: record[:len(record):len(record)],
				lo: lo, hi: len(matches), err: err, oc: oc})
		}
	}
}

// deliver hands the chunk's hits to visit in order; base is the number of
// lines in the chunks before it.
func (c *lineChunk[M]) deliver(base int, visit hitVisit[M]) error {
	for i := range c.hits {
		h := &c.hits[i]
		if err := visit(base+h.line, h, c.matches[h.lo:h.hi:h.hi]); err != nil {
			return err
		}
	}
	return nil
}

// runLines is the sequential lines scan: the pool's chunks, evaluated and
// delivered inline.
func runLines[M any](r io.Reader, pool *chunkPool[M], run recordRun[M], visit hitVisit[M]) error {
	k := chunker[M]{r: r, pool: pool}
	for line := 0; ; {
		c, err := k.read()
		if c == nil {
			return err
		}
		c.eval(context.Background(), run)
		err = c.deliver(line, visit)
		line += c.lines
		pool.put(c)
		if err != nil {
			return err
		}
	}
}

// lineVisitor adapts visit to the hits of a Query's chunks.
func lineVisitor(visit func(m LineMatch) error) hitVisit[int] {
	return func(line int, h *lineHit, offs []int) error {
		m := LineMatch{Line: line, Record: h.record, Err: h.err, Outcome: &h.oc}
		if h.err == nil {
			m.Offsets = offs
		}
		return visit(m)
	}
}

// RunLines streams newline-delimited JSON (JSON Lines) from r, evaluating
// the query against every record (a line, trimmed of space, tab and
// carriage return) with memory bounded by max(64 KiB, the largest record)
// per chunk of records — the streaming regime the paper's introduction
// motivates, applied record-wise. Each record runs under the execution
// supervisor: the configured deadline (WithTimeout) applies per record, and
// an internal fault in the primary engine degrades that one record to the
// DOM oracle (WithFallback to opt out) without disturbing its neighbours.
// visit is called for each record with at least one match, for each record
// that fails to evaluate (LineMatch.Err non-nil, offsets relative to the
// record), and for each record whose evaluation settled only after
// degradation; a bad record is skipped and the scan continues with the next
// line. visit returning a non-nil error stops the scan and is returned
// verbatim. Only a read error on r itself aborts the scan, once the records
// read before it have been delivered.
func (q *Query) RunLines(r io.Reader, visit func(m LineMatch) error) error {
	return runLines(r, &offsetChunks, q.runSupervisedOffsets, lineVisitor(visit))
}

// LineFailure describes one record of a CountLines scan that deserves
// attention: either the record failed outright (Err non-nil) or it was
// answered only by the degradation ladder (Err nil, Outcome.Degraded true —
// the matches counted, but the primary engine's fault is on record).
type LineFailure struct {
	// Line is the 1-based record number.
	Line int
	// Err is the record's terminal error; nil when the degradation ladder
	// rescued the record.
	Err error
	// Outcome reports how the record's supervised evaluation settled.
	Outcome Outcome
}

// CountLines streams newline-delimited JSON from r and returns the total
// number of matches across records that evaluated successfully, together
// with a report of every record that failed or settled only after
// degradation (see LineFailure). A failed record is skipped; a degraded
// record's matches are included in total.
func (q *Query) CountLines(r io.Reader) (total int, failures []LineFailure, err error) {
	err = q.RunLines(r, func(m LineMatch) error {
		if m.Err != nil || m.Outcome.Degraded() {
			failures = append(failures, LineFailure{Line: m.Line, Err: m.Err, Outcome: *m.Outcome})
		}
		if m.Err == nil {
			total += len(m.Offsets)
		}
		return nil
	})
	return total, failures, err
}

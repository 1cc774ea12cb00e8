package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"time"

	"rsonpath"
)

// Streamed responses (stream=1 / envelope "stream": true): instead of
// buffering every match and marshaling one envelope, the daemon writes one
// NDJSON frame per match the moment the engine finds it, through a bounded
// writer that flushes the first frame immediately (first byte before the
// evaluation finishes) and every flushEvery frames afterwards. Response
// memory is the write buffer, not the result set.
//
// The run uses Query.RunContext, not the supervisor: output that has
// already left the process cannot be transparently re-run, so a streamed
// run has no degradation ladder by construction. The status line is decided
// at the first frame; a failure before it is a normal JSON error with the
// right status, a failure after it arrives as an {"error": ...} trailer on
// the 200 stream — the "done" trailer is the client's proof of a complete
// result.
//
// Frame vocabulary (one JSON object per line):
//
//	{"value": <match>}   / {"offset": N}     one match (mode values/offsets)
//	{"record": {...}}    / {"failure": {...}}  one NDJSON record's results
//	{"done": {...}}      summary trailer: the stream completed
//	{"error": {...}}     failure trailer: the stream is truncated
type streamFrame struct {
	Value   json.RawMessage `json:"value,omitempty"`
	Offset  *int            `json:"offset,omitempty"`
	Record  *lineResult     `json:"record,omitempty"`
	Failure *lineFailure    `json:"failure,omitempty"`
	Done    *streamDone     `json:"done,omitempty"`
	Error   *errorDetail    `json:"error,omitempty"`
}

// streamDone is the summary trailer. The single-document fields and the
// NDJSON batch fields share the struct; zero fields are omitted.
type streamDone struct {
	Count           int     `json:"count"`
	Plan            string  `json:"plan,omitempty"`
	PlanRule        string  `json:"plan_rule,omitempty"`
	RecordsMatched  int     `json:"records_matched,omitempty"`
	RecordsFailed   int     `json:"records_failed,omitempty"`
	RecordsDegraded int     `json:"records_degraded,omitempty"`
	DurationMS      float64 `json:"duration_ms"`
}

// streamWriter frames and flushes an NDJSON response. The bufio layer
// bounds per-response write memory; the ResponseController pushes each
// flush through the HTTP chunked encoder so the client sees frames while
// the run is still going.
type streamWriter struct {
	hw      http.ResponseWriter
	rc      *http.ResponseController
	bw      *bufio.Writer
	started bool
	frames  int
	err     error // first write/marshal failure; the stream is dead after it
}

// streamBufBytes bounds the write buffer; flushEvery bounds how many frames
// ride in it before a flush (the first frame always flushes, for first-byte
// latency).
const (
	streamBufBytes = 32 << 10
	flushEvery     = 64
)

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	return &streamWriter{hw: w, rc: http.NewResponseController(w), bw: bufio.NewWriterSize(w, streamBufBytes)}
}

// frame writes one NDJSON frame. The first frame decides the response:
// Content-Type and the 200 status line go out with it.
func (sw *streamWriter) frame(fr *streamFrame) error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.started {
		sw.hw.Header().Set("Content-Type", "application/x-ndjson")
		sw.hw.WriteHeader(http.StatusOK)
		sw.started = true
	}
	data, err := json.Marshal(fr)
	if err != nil {
		sw.err = err
		return err
	}
	data = append(data, '\n')
	if _, err := sw.bw.Write(data); err != nil {
		sw.err = err
		return err
	}
	sw.frames++
	if sw.frames == 1 || sw.frames%flushEvery == 0 {
		sw.flush()
	}
	return sw.err
}

// flush pushes the buffer through the chunked encoder. Flush errors (client
// gone) poison the writer like write errors do.
func (sw *streamWriter) flush() {
	if err := sw.bw.Flush(); err != nil && sw.err == nil {
		sw.err = err
	}
	// Transports without flush support (plain recorders) are fine: the
	// bufio flush above already handed the bytes over.
	sw.rc.Flush()
}

// serveSingleStream evaluates one query and streams each match as it is
// found. The document-index cache is bypassed: RunContext's incremental
// emission rides the streaming scan path, which serves no planes.
func (s *Server) serveSingleStream(w http.ResponseWriter, r *http.Request, req *queryRequest, mode string, start time.Time) {
	if mode == "count" {
		s.writeError(w, badRequest("stream requires mode values or offsets"))
		return
	}
	q, err := s.compileQuery(req.Query)
	if err != nil {
		s.writeError(w, badQuery(err))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	// A dead client stops the run at its next cancellation point instead of
	// evaluating into a void.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()

	doc := []byte(req.Document)
	pl := q.Explain(rsonpath.DocStats{})
	s.met.notePlan(pl.Strategy)

	sw := newStreamWriter(w)
	count := 0
	runErr := q.RunContext(runCtx, doc, func(pos int) {
		if sw.err != nil {
			return
		}
		var fr streamFrame
		if mode == "offsets" {
			p := pos
			fr.Offset = &p
		} else {
			v, err := rsonpath.ValueAt(doc, pos)
			if err != nil {
				// The run goes on to its own verdict, which takes
				// precedence over the extraction's below.
				sw.err = err
				return
			}
			fr.Value = json.RawMessage(v)
		}
		if sw.frame(&fr) != nil {
			stop()
			return
		}
		count++
	})
	if runErr == nil {
		runErr = sw.err
	}
	if runErr != nil {
		s.streamFail(w, sw, runErr)
		return
	}
	// Counted before the trailer leaves, so a client that has read it never
	// scrapes a stale counter.
	s.met.streamed.Add(1)
	sw.frame(&streamFrame{Done: &streamDone{Count: count, Plan: pl.Strategy, PlanRule: pl.Rule,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond)}})
	sw.flush()
}

// serveLinesStream is handleLines with per-record frames: each matched
// record (and each failed one) is written as soon as the worker pool
// delivers it, so an NDJSON bulk response begins before the batch finishes
// and never holds the whole result set. Count mode streams only the "done"
// trailer — the point of count mode is the aggregate.
func (s *Server) serveLinesStream(w http.ResponseWriter, r *http.Request, q queryRunner, mode string, start time.Time) {
	sw := newStreamWriter(w)
	var count, matched, failed, degraded int
	err := q.RunLinesParallel(r.Body, s.cfg.Workers, func(m rsonpath.LineMatch) error {
		s.met.ndjsonRecs.Add(1)
		if m.Err != nil {
			failed++
			d := detailFor(m.Err)
			return sw.frame(&streamFrame{Failure: &lineFailure{Line: m.Line, Error: d}})
		}
		if m.Outcome != nil && m.Outcome.Degraded() {
			degraded++
			s.met.degraded.Add(1)
		}
		if len(m.Offsets) == 0 {
			return nil
		}
		matched++
		count += len(m.Offsets)
		res := lineResult{Line: m.Line, Count: len(m.Offsets),
			Degraded: m.Outcome != nil && m.Outcome.Degraded()}
		switch mode {
		case "offsets":
			res.Offsets = append([]int(nil), m.Offsets...)
		case "values":
			var err error
			// The record buffer is reused by the pool; values must be copied.
			res.Values, err = extractValues(m.Record, m.Offsets, true)
			if err != nil {
				return err
			}
		default:
			return nil // count mode aggregates only
		}
		return sw.frame(&streamFrame{Record: &res})
	})
	if err == nil {
		err = sw.err
	}
	if err != nil {
		s.streamFail(w, sw, err)
		return
	}
	s.met.streamed.Add(1) // before the trailer; see serveSingleStream
	sw.frame(&streamFrame{Done: &streamDone{Count: count, RecordsMatched: matched,
		RecordsFailed: failed, RecordsDegraded: degraded,
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond)}})
	sw.flush()
}

// streamFail reports a failed streamed run: with nothing sent yet it is an
// ordinary JSON error with the right status; after the first frame the
// status line is gone, so the failure arrives as an {"error": ...} trailer
// (and the missing "done" marks the stream truncated either way).
func (s *Server) streamFail(w http.ResponseWriter, sw *streamWriter, err error) {
	if !sw.started {
		s.writeError(w, err)
		return
	}
	d := detailFor(err)
	s.countError(d.Kind)
	sw.frame(&streamFrame{Error: &d})
	sw.flush()
}

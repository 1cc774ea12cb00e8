package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"mime"
	"net/http"
	"strconv"
	"time"

	"rsonpath"
	"rsonpath/internal/admission"
)

// queryRequest is the JSON envelope of a single-document request. Exactly
// one of Query/Queries must be set; Document carries the JSON document
// verbatim (any JSON value).
type queryRequest struct {
	Query    string          `json:"query,omitempty"`
	Queries  []string        `json:"queries,omitempty"`
	Document json.RawMessage `json:"document,omitempty"`
	// Mode selects the result shape: "values" (default), "offsets", or
	// "count".
	Mode string `json:"mode,omitempty"`
	// Stream requests an incrementally flushed NDJSON response: one frame
	// per match, written as the engine finds it, with a "done" summary
	// trailer. See DESIGN.md §14 — streamed runs trade the degradation
	// ladder for first-byte latency and bounded response memory.
	Stream bool `json:"stream,omitempty"`
}

// queryResponse is the success envelope. Count is always present; Offsets
// and Values per mode; Results replaces them for multi-query requests.
// Values are re-emitted through the JSON encoder and arrive compacted
// (whitespace-normalized) — byte positions in Offsets, by contrast, always
// refer to the document exactly as it was sent.
type queryResponse struct {
	Count   int               `json:"count"`
	Offsets []int             `json:"offsets,omitempty"`
	Values  []json.RawMessage `json:"values,omitempty"`
	Results []queryResult     `json:"results,omitempty"`

	// Engine, Attempts, Degraded and FallbackReason surface the supervised
	// run's Outcome: Degraded means the answer is correct but was produced
	// by the DOM oracle after the primary engine faulted — the serving
	// equivalent of the CLI's exit code 6.
	Engine         string  `json:"engine"`
	Attempts       int     `json:"attempts"`
	Degraded       bool    `json:"degraded"`
	FallbackReason string  `json:"fallback_reason,omitempty"`
	DurationMS     float64 `json:"duration_ms"`
	// DocumentCache reports how the document-index cache served this
	// request: "hit", "built", "cold", or "off".
	DocumentCache string `json:"document_cache,omitempty"`
	// Plan is the execution-plan strategy the planner chose for this
	// request ("scan", "indexed", ...), with the rule that chose it in
	// PlanRule; see rsonpath.Query.Explain.
	Plan     string `json:"plan,omitempty"`
	PlanRule string `json:"plan_rule,omitempty"`
}

// queryResult is one query's slice of a multi-query response.
type queryResult struct {
	Query   string            `json:"query"`
	Count   int               `json:"count"`
	Offsets []int             `json:"offsets,omitempty"`
	Values  []json.RawMessage `json:"values,omitempty"`
}

// errorBody is the JSON error envelope; Kind is one of "bad_request",
// "malformed", "limit", "timeout", "overload", "internal".
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Offset  *int   `json:"offset,omitempty"`
}

// degradedHeader marks responses answered by the fallback engine, so load
// balancers and clients can see degradation without parsing the body.
const degradedHeader = "X-Rsonpathd-Degraded"

// Admission weight scale: a point query over a small body is 1 unit; NDJSON
// bulk requests weigh bulkClass times as much (they fan out over the worker
// pool), and every weightSizeUnit bytes of declared body adds another class
// worth of weight, capped so a single huge request degrades to "runs alone"
// rather than to an unpayable price (the gate clamps at capacity anyway).
const (
	bulkClass      = 4
	weightSizeUnit = 8 << 20
	maxSizeFactor  = 8
)

// requestWeight estimates the admission weight of a request from its class
// and declared size — the "request class × estimated document cost" of the
// overload model.
func requestWeight(bulk bool, bodyBytes int64) int64 {
	class := int64(1)
	if bulk {
		class = bulkClass
	}
	factor := 1 + bodyBytes/weightSizeUnit
	if factor > maxSizeFactor {
		factor = maxSizeFactor
	}
	return class * factor
}

// handleQuery is POST /v1/query. Three request forms share the endpoint:
//
//   - JSON envelope: body {"query": ..., "document": ..., "mode": ...} (or
//     "queries" for a QuerySet). The envelope parse validates the document
//     shallowly, so defects the engine would pinpoint are reported as
//     envelope errors; exact byte offsets need the raw form.
//   - raw document: the "query" URL parameter is set and the body is the
//     document itself, verbatim — no envelope, no double validation, the
//     engine's own malformed-input verdicts (with offsets) surface.
//   - NDJSON: Content-Type application/x-ndjson, query in the "query" URL
//     parameter, body is newline-delimited records routed through the
//     parallel lines worker pool.
//
// Every form passes admission before its body is read: the declared size is
// checked against the body cap (413), and the gate either admits, queues
// briefly, or sheds (429 + Retry-After). The gate holds the request's slot
// and byte reservation until the response is written.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.met.inflight.Add(1)
	start := time.Now()
	defer func() {
		s.met.inflight.Add(-1)
		s.met.observe(time.Since(start))
	}()

	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	bulk := ct == "application/x-ndjson" || ct == "application/ndjson" || ct == "application/jsonlines"

	// Body-size enforcement before any read: a declared length over the cap
	// is rejected without consuming the upload. Chunked bodies (unknown
	// length) reserve the worst case and are cut off by MaxBytesReader.
	if r.ContentLength > s.cfg.MaxBodyBytes {
		s.writeError(w, &protocolError{status: http.StatusRequestEntityTooLarge, kind: "limit",
			message: "request body of " + strconv.FormatInt(r.ContentLength, 10) +
				" bytes exceeds the " + strconv.FormatInt(s.cfg.MaxBodyBytes, 10) + "-byte limit"})
		return
	}
	resBytes := r.ContentLength
	if resBytes < 0 {
		resBytes = s.cfg.MaxBodyBytes
	}

	// The gate: admitted, briefly queued, or shed — never blocked
	// unboundedly. Acquire waits on the *connection* context, not the
	// watchdog deadline: a configured 1 ns query timeout must surface as
	// 408 from the run, not as a 429 at the door.
	release, err := s.gate.Acquire(r.Context(), requestWeight(bulk, resBytes), resBytes)
	if err != nil {
		s.shed(w, err)
		return
	}
	defer release()
	s.met.admAdmitted.Add(1)

	// With a slot held, a slow-loris upload would pin it; bound the body
	// read. SetReadDeadline is best-effort — transports without deadline
	// support (httptest's unwrapped recorders) just skip it.
	if s.cfg.BodyReadTimeout > 0 {
		rc := http.NewResponseController(w)
		rc.SetReadDeadline(time.Now().Add(s.cfg.BodyReadTimeout))
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	if bulk {
		s.handleLines(w, r, start)
		return
	}

	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, bodyReadError(err))
		return
	}
	var req queryRequest
	if src := r.URL.Query().Get("query"); src != "" {
		// Raw-document form: the body is the document, untouched.
		req = queryRequest{Query: src, Document: body, Mode: r.URL.Query().Get("mode"),
			Stream: streamParam(r)}
	} else if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, badRequest("invalid request envelope: "+err.Error()))
		return
	}
	mode, ok := parseMode(req.Mode, "values")
	if !ok {
		s.writeError(w, badRequest("mode must be values, offsets, or count"))
		return
	}
	if len(bytes.TrimSpace(req.Document)) == 0 {
		s.writeError(w, badRequest("missing document"))
		return
	}
	switch {
	case req.Query != "" && len(req.Queries) > 0:
		s.writeError(w, badRequest("query and queries are mutually exclusive"))
	case req.Query != "":
		if req.Stream {
			s.serveSingleStream(w, r, &req, mode, start)
			return
		}
		s.serveSingle(w, r, &req, mode, start)
	case len(req.Queries) > 0:
		if req.Stream {
			s.writeError(w, badRequest("streaming supports a single query"))
			return
		}
		s.serveSet(w, r, &req, mode, start)
	default:
		s.writeError(w, badRequest("missing query"))
	}
}

// streamParam reads the stream=1/true URL toggle (the envelope form has its
// own Stream field).
func streamParam(r *http.Request) bool {
	v := r.URL.Query().Get("stream")
	return v == "1" || v == "true"
}

// shed maps a gate rejection to its response: an absolutely oversized
// request is the client's fault (413, no point retrying); everything else
// is load (429 + Retry-After).
func (s *Server) shed(w http.ResponseWriter, err error) {
	if errors.Is(err, admission.ErrTooLarge) {
		s.met.admShedTooBig.Add(1)
		s.writeError(w, &protocolError{status: http.StatusRequestEntityTooLarge, kind: "limit",
			message: err.Error()})
		return
	}
	switch {
	case errors.Is(err, admission.ErrQueueFull):
		s.met.admShedQueue.Add(1)
	case errors.Is(err, admission.ErrBytesBudget):
		s.met.admShedBytes.Add(1)
	case errors.Is(err, admission.ErrDeadline):
		s.met.admShedDeadline.Add(1)
	}
	s.writeError(w, overloadError(err.Error()))
}

// requestContext applies the configured per-request deadline on top of the
// connection's context (which already cancels on client disconnect).
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if t := s.cfg.Timeout; t > 0 {
		return context.WithTimeout(r.Context(), t)
	}
	return r.Context(), func() {}
}

// allowFallback consults the circuit breaker; record is non-nil exactly
// when this request's outcome must be fed back (the path was actually
// used).
func (s *Server) allowFallback() (allowed bool) {
	if s.breaker == nil {
		return true
	}
	return s.breaker.Allow()
}

// recordFallback feeds one protected-path outcome to the breaker. allowed
// guards against recording denials: only real uses of the ladder count.
func (s *Server) recordFallback(allowed bool, degraded bool) {
	if s.breaker != nil && allowed {
		s.breaker.Record(degraded)
	}
}

// serveSingle evaluates one query over the request's document, through the
// document-index cache when it has this document hot.
func (s *Server) serveSingle(w http.ResponseWriter, r *http.Request, req *queryRequest, mode string, start time.Time) {
	allowFB := s.allowFallback()
	compile := s.compileQuery
	if !allowFB {
		compile = s.compileQueryNF
	}
	q, err := compile(req.Query)
	if err != nil {
		s.writeError(w, badQuery(err))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	doc := []byte(req.Document)
	docState := "off"
	var idx *rsonpath.IndexedDocument
	if s.docs.enabled() {
		var built bool
		idx, built = s.docs.lookup(doc)
		switch {
		case built:
			docState = "built"
			s.met.docBuilds.Add(1)
		case idx != nil:
			docState = "hit"
			s.met.docHits.Add(1)
		default:
			docState = "cold"
		}
	}

	// One planning decision drives the dispatch, the response's plan field,
	// and the per-strategy counters — the same Explain a library caller
	// would consult.
	pl := q.Explain(rsonpath.DocStats{Bytes: len(doc), Indexed: idx != nil})
	s.met.notePlan(pl.Strategy)

	var offsets []int
	emit := func(pos int) { offsets = append(offsets, pos) }
	var oc rsonpath.Outcome
	if idx != nil && pl.Strategy == "indexed" {
		oc, err = q.RunIndexedSupervised(ctx, idx, emit)
	} else {
		oc, err = q.RunSupervised(ctx, doc, emit)
	}
	s.recordFallback(allowFB, oc.Degraded())
	s.noteOutcome(w, oc)
	if err != nil {
		s.writeError(w, err)
		return
	}

	resp := queryResponse{
		Count:         len(offsets),
		Engine:        oc.Engine,
		Attempts:      oc.Attempts,
		Degraded:      oc.Degraded(),
		DurationMS:    float64(time.Since(start)) / float64(time.Millisecond),
		DocumentCache: docState,
		Plan:          pl.Strategy,
		PlanRule:      pl.Rule,
	}
	if oc.FallbackReason != nil {
		resp.FallbackReason = oc.FallbackReason.Error()
	}
	switch mode {
	case "offsets":
		resp.Offsets = offsets
	case "values":
		resp.Values, err = extractValues(doc, offsets, false)
		if err != nil {
			s.writeError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, &resp)
}

// serveSet evaluates a QuerySet over the request's document in one shared
// pass. Sets run unindexed: the one-pass driver is already the amortization
// for "many queries, one document".
func (s *Server) serveSet(w http.ResponseWriter, r *http.Request, req *queryRequest, mode string, start time.Time) {
	allowFB := s.allowFallback()
	compile := s.compileSet
	if !allowFB {
		compile = s.compileSetNF
	}
	set, err := compile(req.Queries)
	if err != nil {
		s.writeError(w, badQuery(err))
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	doc := []byte(req.Document)
	pl := set.Explain(rsonpath.DocStats{Bytes: len(doc)})
	s.met.notePlan(pl.Strategy)
	perQuery := make([][]int, set.Len())
	oc, err := set.RunSupervised(ctx, doc, func(query, pos int) {
		perQuery[query] = append(perQuery[query], pos)
	})
	s.recordFallback(allowFB, oc.Degraded())
	s.noteOutcome(w, oc)
	if err != nil {
		s.writeError(w, err)
		return
	}

	resp := queryResponse{
		Engine:     oc.Engine,
		Attempts:   oc.Attempts,
		Degraded:   oc.Degraded(),
		DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
		Results:    make([]queryResult, set.Len()),
		Plan:       pl.Strategy,
		PlanRule:   pl.Rule,
	}
	if oc.FallbackReason != nil {
		resp.FallbackReason = oc.FallbackReason.Error()
	}
	for i, offs := range perQuery {
		res := queryResult{Query: req.Queries[i], Count: len(offs)}
		resp.Count += len(offs)
		switch mode {
		case "offsets":
			res.Offsets = offs
		case "values":
			res.Values, err = extractValues(doc, offs, false)
			if err != nil {
				s.writeError(w, err)
				return
			}
		}
		resp.Results[i] = res
	}
	writeJSON(w, http.StatusOK, &resp)
}

// linesResponse summarizes an NDJSON batch. Results carries one entry per
// record with matches; Failures one entry per record that could not be
// evaluated. Records without matches that evaluated cleanly are counted in
// no list — the visit contract reports only matched, failed, and degraded
// records.
type linesResponse struct {
	Count           int           `json:"count"`
	RecordsMatched  int           `json:"records_matched"`
	RecordsFailed   int           `json:"records_failed"`
	RecordsDegraded int           `json:"records_degraded"`
	Results         []lineResult  `json:"results,omitempty"`
	Failures        []lineFailure `json:"failures,omitempty"`
	DurationMS      float64       `json:"duration_ms"`
}

type lineResult struct {
	Line     int               `json:"line"`
	Count    int               `json:"count"`
	Offsets  []int             `json:"offsets,omitempty"`
	Values   []json.RawMessage `json:"values,omitempty"`
	Degraded bool              `json:"degraded,omitempty"`
}

type lineFailure struct {
	Line  int         `json:"line"`
	Error errorDetail `json:"error"`
}

// handleLines evaluates an NDJSON body record-by-record through the
// parallel worker pool. The query text travels in the "query" URL
// parameter (the body is the data); mode defaults to "count" — batch
// callers usually aggregate. With stream=1 the per-record results are
// written incrementally instead of buffered (see stream.go).
func (s *Server) handleLines(w http.ResponseWriter, r *http.Request, start time.Time) {
	src := r.URL.Query().Get("query")
	if src == "" {
		s.writeError(w, badRequest("NDJSON requests pass the query in the \"query\" URL parameter"))
		return
	}
	mode, ok := parseMode(r.URL.Query().Get("mode"), "count")
	if !ok {
		s.writeError(w, badRequest("mode must be values, offsets, or count"))
		return
	}
	allowFB := s.allowFallback()
	compile := s.compileLines
	if !allowFB {
		compile = s.compileLinesNF
	}
	q, err := compile(src)
	if err != nil {
		s.writeError(w, badQuery(err))
		return
	}
	s.met.notePlan(q.Explain(rsonpath.DocStats{}).Strategy)

	if streamParam(r) {
		s.serveLinesStream(w, r, q, allowFB, mode, start)
		return
	}

	resp := linesResponse{}
	err = q.RunLinesParallel(r.Body, s.cfg.Workers, func(m rsonpath.LineMatch) error {
		s.met.ndjsonRecs.Add(1)
		if m.Err != nil {
			resp.RecordsFailed++
			resp.Failures = append(resp.Failures, lineFailure{Line: m.Line, Error: detailFor(m.Err)})
			return nil
		}
		if m.Outcome != nil && m.Outcome.Degraded() {
			resp.RecordsDegraded++
			s.met.degraded.Add(1)
		}
		if len(m.Offsets) == 0 {
			return nil // degraded-but-empty record: counted above, nothing to report
		}
		resp.RecordsMatched++
		resp.Count += len(m.Offsets)
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
		resp.Results = append(resp.Results, res)
		return nil
	})
	s.recordFallback(allowFB, resp.RecordsDegraded > 0)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if resp.RecordsDegraded > 0 {
		w.Header().Set(degradedHeader, "true")
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, &resp)
}

// noteOutcome folds a run's Outcome into the metrics and response headers.
func (s *Server) noteOutcome(w http.ResponseWriter, oc rsonpath.Outcome) {
	if oc.Degraded() {
		s.met.degraded.Add(1)
		w.Header().Set(degradedHeader, "true")
	}
}

// extractValues resolves match offsets to raw value bytes. When copy is
// set the values are cloned (the source buffer outlives the call only for
// single-document requests, whose body is request-scoped anyway).
func extractValues(data []byte, offsets []int, copyValues bool) ([]json.RawMessage, error) {
	if len(offsets) == 0 {
		return nil, nil
	}
	out := make([]json.RawMessage, 0, len(offsets))
	for _, pos := range offsets {
		v, err := rsonpath.ValueAt(data, pos)
		if err != nil {
			return nil, err
		}
		if copyValues {
			v = bytes.Clone(v)
		}
		out = append(out, json.RawMessage(v))
	}
	return out, nil
}

// parseMode validates the result-shape selector.
func parseMode(mode, def string) (string, bool) {
	if mode == "" {
		return def, true
	}
	switch mode {
	case "values", "offsets", "count":
		return mode, true
	}
	return "", false
}

// protocolError is a 4xx verdict produced by the server itself (envelope,
// query text, transport, or admission problems) rather than by a run.
type protocolError struct {
	status  int
	kind    string
	message string
}

func (e *protocolError) Error() string { return e.message }

func badRequest(msg string) error {
	return &protocolError{status: http.StatusBadRequest, kind: "bad_request", message: msg}
}

// overloadError is a load-shedding verdict; writeError adds the
// Retry-After hint.
func overloadError(msg string) error {
	return &protocolError{status: http.StatusTooManyRequests, kind: "overload", message: msg}
}

// retryAfter is the Retry-After value, in seconds, every 429 carries.
const retryAfter = "1"

// badQuery classifies a compile failure: always the client's query, so 400.
func badQuery(err error) error {
	return &protocolError{status: http.StatusBadRequest, kind: "bad_request",
		message: "invalid query: " + err.Error()}
}

// bodyReadError distinguishes an oversized body from a transport failure.
func bodyReadError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &protocolError{status: http.StatusRequestEntityTooLarge, kind: "limit",
			message: err.Error()}
	}
	return badRequest("reading request body: " + err.Error())
}

// detailFor maps any error to the JSON error detail, typed errors first.
func detailFor(err error) errorDetail {
	var me *rsonpath.MalformedError
	var le *rsonpath.LimitError
	var ie *rsonpath.InternalError
	var pe *protocolError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &pe):
		return errorDetail{Kind: pe.kind, Message: pe.message}
	case errors.As(err, &mbe):
		// An oversized body surfaced mid-read (the NDJSON path reads the
		// body inside the engine, so the size verdict arrives as a plain
		// read error): still a limit, not an internal fault.
		return errorDetail{Kind: "limit", Message: err.Error()}
	case errors.As(err, &me):
		off := me.Offset
		return errorDetail{Kind: "malformed", Message: err.Error(), Offset: &off}
	case errors.As(err, &le):
		off := le.Offset
		return errorDetail{Kind: "limit", Message: err.Error(), Offset: &off}
	case errors.Is(err, rsonpath.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return errorDetail{Kind: "timeout", Message: err.Error()}
	case errors.As(err, &ie):
		return errorDetail{Kind: "internal", Message: err.Error()}
	default:
		return errorDetail{Kind: "internal", Message: err.Error()}
	}
}

// countError folds one error kind into the metrics; shared by writeError
// and the mid-stream error trailer (which cannot change the status line but
// still must count).
func (s *Server) countError(kind string) int {
	switch kind {
	case "bad_request":
		s.met.errBadReq.Add(1)
		return http.StatusBadRequest
	case "malformed":
		s.met.errMalform.Add(1)
		return http.StatusUnprocessableEntity
	case "limit":
		s.met.errLimit.Add(1)
		return http.StatusRequestEntityTooLarge
	case "timeout":
		s.met.errTimeout.Add(1)
		return http.StatusRequestTimeout
	case "overload":
		s.met.errOverload.Add(1)
		return http.StatusTooManyRequests
	default:
		s.met.errIntern.Add(1)
		return http.StatusInternalServerError
	}
}

// writeError maps err to its status code and JSON body, and counts it. The
// mapping keeps the library's typed vocabulary distinct on the wire:
// protocol errors 400/413, malformed documents 422, resource limits 413,
// deadlines 408, load shedding 429 (with Retry-After), internal faults 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	d := detailFor(err)
	status := s.countError(d.Kind)
	if pe := (*protocolError)(nil); errors.As(err, &pe) {
		status = pe.status
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfter)
	}
	writeJSON(w, status, &errorBody{Error: d})
}

// writeJSON marshals v and writes it with status. Marshaling cannot fail
// for the response shapes above (raw messages are valid JSON by
// construction); a failure is reported as a bare 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"kind":"internal","message":"response marshal failed"}}`,
			http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

package server

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"rsonpath/internal/planner"
	"rsonpath/internal/simd"
)

// metrics is the daemon's counter set, exposition-format compatible with
// Prometheus text scraping (counters and gauges only, no labels — each
// series gets its own name so the renderer stays trivial and dependency
// free). All fields are atomics: handlers on any connection bump them
// without coordination.
type metrics struct {
	requests   atomic.Int64 // requests to /v1/query, any outcome
	inflight   atomic.Int64 // requests currently being served
	degraded   atomic.Int64 // requests answered by the fallback engine
	errBadReq  atomic.Int64 // 4xx protocol/envelope/query errors
	errMalform atomic.Int64 // malformed-document rejections
	errLimit   atomic.Int64 // resource-limit rejections
	errTimeout atomic.Int64 // deadline/cancellation failures
	errIntern  atomic.Int64 // internal faults that escaped the ladder
	ndjsonRecs atomic.Int64 // NDJSON records handed to the visitor: matched, failed or degraded
	docHits    atomic.Int64 // document-cache index hits
	docBuilds  atomic.Int64 // document indexes built
	durationNs atomic.Int64 // summed /v1/query wall time
	streamed   atomic.Int64 // responses streamed incrementally
	flushes    atomic.Int64 // SIGHUP cache flushes performed
	panics     atomic.Int64 // handler panics converted to 500s

	// Admission-control counters (DESIGN.md §14): every arrival is either
	// admitted or shed for exactly one of the reasons below. errOverload
	// counts the 429 responses (sheds that reached the wire).
	admAdmitted     atomic.Int64
	admShedQueue    atomic.Int64 // wait queue full
	admShedDeadline atomic.Int64 // caller deadline expired while queued
	admShedBytes    atomic.Int64 // in-flight bytes budget exhausted
	admShedTooBig   atomic.Int64 // larger than the whole bytes budget (413)
	errOverload     atomic.Int64 // 429s written

	// planRuns counts served runs per execution-plan strategy, indexed like
	// planner.Strategies; notePlan resolves the strategy name the handlers
	// see on the public Plan.
	planRuns [planner.NumStrategies]atomic.Int64
}

// notePlan counts one served run of the named strategy. Unknown names (a
// test fake's invented strategy) are dropped rather than miscounted.
func (m *metrics) notePlan(strategy string) {
	for i, s := range planner.Strategies {
		if s.String() == strategy {
			m.planRuns[i].Add(1)
			return
		}
	}
}

// observe records one finished request.
func (m *metrics) observe(d time.Duration) {
	m.requests.Add(1)
	m.durationNs.Add(int64(d))
}

// render writes the exposition text. The query-cache and doc-cache gauges
// are passed in by the server, which owns those structures, as are the
// admission-subsystem gauges (gate occupancy, breaker state).
func (m *metrics) render(w io.Writer, cache cacheGauges, docs docGauges, adm admGauges) {
	p := func(name string, kind string, v int64) {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, kind, name, v)
	}
	p("rsonpathd_requests_total", "counter", m.requests.Load())
	p("rsonpathd_requests_inflight", "gauge", m.inflight.Load())
	p("rsonpathd_degraded_total", "counter", m.degraded.Load())
	p("rsonpathd_errors_bad_request_total", "counter", m.errBadReq.Load())
	p("rsonpathd_errors_malformed_total", "counter", m.errMalform.Load())
	p("rsonpathd_errors_limit_total", "counter", m.errLimit.Load())
	p("rsonpathd_errors_timeout_total", "counter", m.errTimeout.Load())
	p("rsonpathd_errors_internal_total", "counter", m.errIntern.Load())
	p("rsonpathd_errors_overload_total", "counter", m.errOverload.Load())
	p("rsonpathd_ndjson_records_total", "counter", m.ndjsonRecs.Load())
	p("rsonpathd_streamed_responses_total", "counter", m.streamed.Load())
	p("rsonpathd_cache_flushes_total", "counter", m.flushes.Load())
	p("rsonpathd_panics_total", "counter", m.panics.Load())
	p("rsonpathd_query_cache_hits_total", "counter", cache.hits)
	p("rsonpathd_query_cache_misses_total", "counter", cache.misses)
	p("rsonpathd_query_cache_evictions_total", "counter", cache.evictions)
	p("rsonpathd_query_cache_entries", "gauge", int64(cache.len))
	p("rsonpathd_doc_cache_hits_total", "counter", m.docHits.Load())
	p("rsonpathd_doc_cache_builds_total", "counter", m.docBuilds.Load())
	p("rsonpathd_doc_cache_entries", "gauge", int64(docs.len))
	p("rsonpathd_doc_cache_evictions_total", "counter", docs.evicted)
	p("rsonpathd_doccache_bytes", "gauge", docs.bytes)
	p("rsonpathd_admission_admitted_total", "counter", m.admAdmitted.Load())
	p("rsonpathd_admission_shed_queue_full_total", "counter", m.admShedQueue.Load())
	p("rsonpathd_admission_shed_deadline_total", "counter", m.admShedDeadline.Load())
	p("rsonpathd_admission_shed_bytes_total", "counter", m.admShedBytes.Load())
	p("rsonpathd_admission_shed_too_large_total", "counter", m.admShedTooBig.Load())
	p("rsonpathd_admission_queue_depth", "gauge", int64(adm.queueDepth))
	p("rsonpathd_admission_queue_capacity", "gauge", int64(adm.queueCap))
	p("rsonpathd_admission_inflight_weight", "gauge", adm.usedWeight)
	p("rsonpathd_admission_weight_capacity", "gauge", adm.capWeight)
	p("rsonpathd_admission_inflight_bytes", "gauge", adm.usedBytes)
	p("rsonpathd_admission_bytes_budget", "gauge", adm.bytesBudget)
	p("rsonpathd_breaker_state", "gauge", int64(adm.breakerState))
	p("rsonpathd_breaker_opens_total", "counter", adm.breakerOpens)
	p("rsonpathd_goroutines", "gauge", int64(runtime.NumGoroutine()))
	for i, s := range planner.Strategies {
		p("rsonpathd_plan_"+s.String()+"_total", "counter", m.planRuns[i].Load())
	}
	fmt.Fprintf(w, "# TYPE rsonpathd_request_duration_seconds_sum counter\nrsonpathd_request_duration_seconds_sum %g\n",
		time.Duration(m.durationNs.Load()).Seconds())
	fmt.Fprintf(w, "# TYPE rsonpathd_request_duration_seconds_count counter\nrsonpathd_request_duration_seconds_count %d\n",
		m.requests.Load())
	// The one labelled series: the classification kernel backend serving
	// this process, as an info-style constant gauge (DESIGN.md §16).
	fmt.Fprintf(w, "# TYPE rsonpathd_simd_backend gauge\nrsonpathd_simd_backend{name=%q} 1\n",
		simd.Backend())
}

// cacheGauges, docGauges and admGauges decouple the renderer from the
// structures that own the numbers.
type cacheGauges struct {
	hits, misses, evictions int64
	len                     int
}

type docGauges struct {
	len     int
	bytes   int64
	evicted int64
}

// admGauges is the admission subsystem's point-in-time state.
type admGauges struct {
	queueDepth, queueCap   int
	usedWeight, capWeight  int64
	usedBytes, bytesBudget int64
	breakerState           int // 0 closed, 1 half-open, 2 open
	breakerOpens           int64
}

// Package server implements rsonpathd, the JSONPath query daemon: a
// long-running HTTP/JSON service that keeps compiled queries (and,
// optionally, classified documents) hot across requests, runs every request
// under the execution supervisor with a per-request deadline, and reports
// degradation per request and in aggregate. See DESIGN.md §12 for the
// architecture and §14 for the overload model: every request passes the
// admission gate (weighted concurrency, a bounded deadline-aware wait queue
// and an in-flight bytes budget) before its body is read, and the gate alone
// sheds overload with 429. An internal fault is answered by the
// supervisor's DOM-oracle fallback unless FallbackOff is set.
//
// Endpoints:
//
//	POST /v1/query   evaluate a query (JSON envelope, or NDJSON body with
//	                 the query in the "query" URL parameter); add stream=1
//	                 for an incrementally flushed NDJSON response
//	GET  /healthz    liveness probe with overload report
//	GET  /metrics    Prometheus-style exposition text
//	GET  /version    build identification
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"rsonpath"
	"rsonpath/internal/admission"
	"rsonpath/internal/simd"
)

// Config is the daemon configuration; the zero value serves with defaults.
type Config struct {
	// Addr is the listen address, e.g. ":8077" or "127.0.0.1:0". A
	// "unix:/path" address listens on a unix domain socket instead (stale
	// socket files are removed first) — the transport cluster workers serve
	// on (DESIGN.md §15).
	Addr string
	// Shard identifies this instance inside a cluster ("0", "1", ...); it is
	// reported by /healthz so the supervisor's probes and the logs can tell
	// workers apart. Empty outside cluster mode.
	Shard string
	// QueryCacheSize bounds the compiled-query LRU; <= 0 selects
	// rsonpath.DefaultQueryCacheSize.
	QueryCacheSize int
	// DocCacheSize bounds the indexed-document LRU by entry count; 0
	// disables document caching. A document's mask index is built on its
	// second sighting.
	DocCacheSize int
	// DocCacheBytes bounds the document cache by total resident bytes of
	// promoted indexes (document copy + mask planes); <= 0 leaves only the
	// entry-count bound. Byte-bounding is what actually protects the
	// process: entry counts say nothing about 100 MB documents.
	DocCacheBytes int64
	// Timeout is the per-request watchdog deadline (per record for NDJSON
	// bodies); 0 disables it.
	Timeout time.Duration
	// FallbackOff disables the degradation ladder; internal engine faults
	// then surface as HTTP 500 instead of a degraded 200.
	FallbackOff bool
	// MaxDepth, MaxMatches and MaxDocBytes are the per-run resource limits
	// (rsonpath.WithMaxDepth and friends); 0 keeps each limit's library
	// default.
	MaxDepth    int
	MaxMatches  int
	MaxDocBytes int
	// MaxBodyBytes caps the accepted HTTP request body; <= 0 selects
	// DefaultMaxBodyBytes. Enforced before any body read: a Content-Length
	// over the cap is 413 without consuming the upload, and chunked bodies
	// are cut off at the cap by http.MaxBytesReader.
	MaxBodyBytes int64
	// MaxConcurrency is the admission gate's weight capacity — the total
	// weighted work admitted concurrently (a point query is 1 unit, NDJSON
	// bulk and large bodies weigh more). <= 0 selects 8 × GOMAXPROCS.
	MaxConcurrency int
	// AdmissionQueue bounds the admission wait queue. 0 selects
	// 2 × MaxConcurrency; negative disables queueing (contended arrivals
	// are shed immediately).
	AdmissionQueue int
	// MaxInflightBytes bounds the summed payload bytes of admitted
	// requests. 0 selects DefaultMaxInflightBytes; negative means
	// unlimited. A request over the remaining budget is shed with 429; one
	// over the whole budget is rejected with 413.
	MaxInflightBytes int64
	// BodyReadTimeout bounds reading a request body once admitted, so a
	// slow-loris client cannot pin an admission slot; 0 disables it.
	BodyReadTimeout time.Duration
	// Workers is the NDJSON worker-pool width; <= 0 selects GOMAXPROCS.
	Workers int
	// Version is reported by /version.
	Version string
}

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// unset: large enough for real documents, small enough that one request
// cannot balloon the process.
const DefaultMaxBodyBytes = 64 << 20

// DefaultMaxInflightBytes caps the aggregate payload of admitted requests
// when Config.MaxInflightBytes is unset. The bytes budget, not the slot
// count, is what bounds resident memory: 64 slots of 64 MB bodies is 4 GB.
const DefaultMaxInflightBytes = 512 << 20

// queryRunner is the slice of *rsonpath.Query the handlers need; an
// interface so the tests can interpose a faulting or degrading runner the
// same way the library's own fault suite interposes on Query.run.
type queryRunner interface {
	RunSupervised(ctx context.Context, data []byte, emit func(pos int)) (rsonpath.Outcome, error)
	RunIndexedSupervised(ctx context.Context, doc *rsonpath.IndexedDocument, emit func(pos int)) (rsonpath.Outcome, error)
	RunContext(ctx context.Context, data []byte, emit func(pos int)) error
	RunLinesParallel(r io.Reader, workers int, visit func(m rsonpath.LineMatch) error) error
	Explain(stats rsonpath.DocStats) rsonpath.Plan
}

// setRunner is the QuerySet counterpart.
type setRunner interface {
	RunSupervised(ctx context.Context, data []byte, emit func(query, pos int)) (rsonpath.Outcome, error)
	Explain(stats rsonpath.DocStats) rsonpath.Plan
	Len() int
}

// Server is one daemon instance. Create with New, Listen, then Serve; stop
// with Shutdown.
type Server struct {
	cfg      Config
	cache    *rsonpath.QueryCache
	docs     *docCache
	met      metrics
	http     *http.Server
	lis      net.Listener
	gate     *admission.Gate
	draining atomic.Bool // set by Shutdown; /healthz answers 503

	// compileQuery/compileLines/compileSet produce the runner for a request;
	// the defaults resolve through the compiled-query cache. Tests replace
	// them to inject faults and forced degradations.
	compileQuery func(src string) (queryRunner, error)
	compileLines func(src string) (queryRunner, error)
	compileSet   func(queries []string) (setRunner, error)
}

// New builds a Server from cfg. The compiled-query cache, the document
// cache, and the admission subsystem live for the Server's lifetime.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 8 * runtime.GOMAXPROCS(0)
	}
	if cfg.AdmissionQueue == 0 {
		cfg.AdmissionQueue = 2 * cfg.MaxConcurrency
	} else if cfg.AdmissionQueue < 0 {
		cfg.AdmissionQueue = 0
	}
	if cfg.MaxInflightBytes == 0 {
		cfg.MaxInflightBytes = DefaultMaxInflightBytes
	} else if cfg.MaxInflightBytes < 0 {
		cfg.MaxInflightBytes = 0 // unlimited
	}
	s := &Server{
		cfg:   cfg,
		cache: rsonpath.NewQueryCache(cfg.QueryCacheSize),
		docs:  newDocCache(cfg.DocCacheSize, cfg.DocCacheBytes),
		gate: admission.NewGate(admission.GateConfig{
			Capacity:    int64(cfg.MaxConcurrency),
			QueueDepth:  cfg.AdmissionQueue,
			BytesBudget: cfg.MaxInflightBytes,
		}),
	}

	// Two option sets: requests over a buffered document take their deadline
	// from the request context (so the indexed fast path stays available),
	// while NDJSON records run inside the worker pool, which supervises each
	// record with the compiled-in watchdog.
	base := s.baseOptions()
	lines := base
	if cfg.Timeout > 0 {
		// A full slice expression, so lines never shares base's array.
		lines = append(base[:len(base):len(base)], rsonpath.WithTimeout(cfg.Timeout))
	}
	s.compileQuery = func(src string) (queryRunner, error) { return s.cache.Get(src, base...) }
	s.compileLines = func(src string) (queryRunner, error) { return s.cache.Get(src, lines...) }
	s.compileSet = func(queries []string) (setRunner, error) { return s.cache.GetSet(queries, base...) }

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /version", s.handleVersion)
	s.http = &http.Server{
		Handler:           s.recoverPanics(mux),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// recoverPanics converts a handler panic into a JSON 500 plus the
// rsonpathd_panics_total counter. net/http would recover a panic anyway, but
// silently: the connection dies, nothing is counted, and neither the chaos
// gate nor the cluster supervisor's crash-loop detector can see that
// anything happened. http.ErrAbortHandler keeps its meaning (deliberate
// abort, no body) but is still counted. If the response already started —
// a streamed run panicking mid-body — the status line is gone; the panic is
// counted and the connection is closed hard by re-panicking, so the client
// sees truncation rather than a silently short 200.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pw := &panicWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			s.met.panics.Add(1)
			if pw.wrote || v == http.ErrAbortHandler {
				panic(http.ErrAbortHandler)
			}
			s.met.errIntern.Add(1)
			writeJSON(w, http.StatusInternalServerError, &errorBody{Error: errorDetail{
				Kind: "internal", Message: fmt.Sprintf("handler panic: %v", v)}})
		}()
		next.ServeHTTP(pw, r)
	})
}

// panicWriter remembers whether the response has started, which decides
// whether a recovered panic can still become a 500.
type panicWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *panicWriter) WriteHeader(status int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *panicWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// flush/deadline support through the panic tracker.
func (w *panicWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush empties the compiled-query and document-index caches. Wired to
// SIGHUP in cmd/rsonpathd: the operator's "forget what you have learned"
// knob after a deploy or a data change, logged and counted in
// rsonpathd_cache_flushes_total.
func (s *Server) Flush() {
	s.cache.Purge()
	s.docs.purge()
	s.met.flushes.Add(1)
}

// Flushes reports how many Flush calls the server has served, for logs.
func (s *Server) Flushes() int64 { return s.met.flushes.Load() }

// baseOptions translates Config into compile options, deadline excluded.
func (s *Server) baseOptions() []rsonpath.Option {
	var opts []rsonpath.Option
	if s.cfg.MaxDepth != 0 {
		opts = append(opts, rsonpath.WithMaxDepth(s.cfg.MaxDepth))
	}
	if s.cfg.MaxMatches != 0 {
		opts = append(opts, rsonpath.WithMaxMatches(s.cfg.MaxMatches))
	}
	if s.cfg.MaxDocBytes != 0 {
		opts = append(opts, rsonpath.WithMaxDocBytes(s.cfg.MaxDocBytes))
	}
	if s.cfg.FallbackOff {
		opts = append(opts, rsonpath.WithFallback(rsonpath.FallbackOff))
	}
	return opts
}

// Handler returns the daemon's HTTP handler, for embedding in a larger mux
// or in httptest.
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Listen opens the configured address. Separate from Serve so a caller
// (and the tests) can learn the bound address of ":0" before serving. A
// "unix:/path" address binds a unix domain socket, removing any stale
// socket file left by a previous (crashed) process first — the file is this
// process's to claim, because the cluster supervisor hands each worker a
// distinct path.
func (s *Server) Listen() error {
	network, addr := "tcp", s.cfg.Addr
	if path, ok := strings.CutPrefix(s.cfg.Addr, "unix:"); ok {
		network, addr = "unix", path
		os.Remove(path)
	}
	lis, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	s.lis = lis
	return nil
}

// Addr returns the bound listen address; nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections on the listener opened by Listen until
// Shutdown. It returns nil on graceful shutdown.
func (s *Server) Serve() error {
	if s.lis == nil {
		return errors.New("server: Serve before Listen")
	}
	err := s.http.Serve(s.lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the daemon: the listener closes immediately, in-flight
// requests run to completion, and idle connections are closed. If ctx
// expires first the remaining connections are closed forcibly, so Shutdown
// returns within the caller's deadline either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	if err != nil {
		s.http.Close()
	}
	return err
}

// healthReport is the /healthz body: liveness plus the overload picture a
// load balancer needs to steer traffic. The endpoint always answers 200 —
// an overloaded daemon is alive and shedding by design, and failing the
// liveness probe under load would turn an overload into an outage.
type healthReport struct {
	Status string `json:"status"` // "ok", "overloaded" (wait queue full), or "draining"
	Shard  string `json:"shard,omitempty"`
	Gate   struct {
		Used        int64 `json:"used"`
		Capacity    int64 `json:"capacity"`
		Queue       int   `json:"queue"`
		QueueCap    int   `json:"queue_cap"`
		Bytes       int64 `json:"bytes"`
		BytesBudget int64 `json:"bytes_budget"`
	} `json:"gate"`
}

// handleHealthz is the liveness probe with the overload report. An
// overloaded daemon still answers 200 — it is alive and shedding by design —
// but a *draining* one answers 503: Shutdown has been called, the listener
// is closing, and a router that keeps sending here is sending to a wall.
// The 503 is what health-gates cluster membership during rolling drains.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	snap := s.gate.Snapshot()
	rep := healthReport{Status: "ok", Shard: s.cfg.Shard}
	rep.Gate.Used = snap.Used
	rep.Gate.Capacity = snap.Capacity
	rep.Gate.Queue = snap.QueueDepth
	rep.Gate.QueueCap = snap.QueueCap
	rep.Gate.Bytes = snap.Bytes
	rep.Gate.BytesBudget = snap.BytesBudget
	if snap.QueueCap > 0 && snap.QueueDepth >= snap.QueueCap {
		rep.Status = "overloaded"
	}
	if s.draining.Load() {
		rep.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, &rep)
		return
	}
	writeJSON(w, http.StatusOK, &rep)
}

// handleMetrics renders the exposition text.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.cache.Stats()
	resident, _, evicted := s.docs.stats()
	snap := s.gate.Snapshot()
	adm := admGauges{
		queueDepth:  snap.QueueDepth,
		queueCap:    snap.QueueCap,
		usedWeight:  snap.Used,
		capWeight:   snap.Capacity,
		usedBytes:   snap.Bytes,
		bytesBudget: snap.BytesBudget,
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.render(w,
		cacheGauges{hits: st.Hits, misses: st.Misses, evictions: st.Evictions, len: st.Len},
		docGauges{len: s.docs.len(), bytes: resident, evicted: evicted},
		adm)
}

// handleVersion identifies the build.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	version := s.cfg.Version
	if version == "" {
		version = "dev"
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"name":"rsonpathd","version":%q,"engine":"rsonpath","go":%q,"simd":%q}`+"\n",
		version, runtime.Version(), simd.Backend())
}

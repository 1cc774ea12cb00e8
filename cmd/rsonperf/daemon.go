package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rsonpath"
	"rsonpath/internal/admission"
	"rsonpath/internal/classifier"
	"rsonpath/internal/dom"
	"rsonpath/internal/input"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/jsonpath"
)

// The daemon runs with its default flags; these mirror the defaults the
// traced replays need (rsonpathd's -timeout and its admission gate).
const (
	daemonTimeout = 2 * time.Second
	daemonGateCap = 8 // × GOMAXPROCS weight units
)

// daemon is one rsonpathd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// addrWriter watches the daemon's stdout for its "listening on" line.
type addrWriter struct {
	once sync.Once
	addr chan string
	buf  bytes.Buffer
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	if line, _, ok := bytes.Cut(w.buf.Bytes(), []byte("\n")); ok {
		if _, addr, ok := strings.Cut(string(line), "listening on "); ok {
			w.once.Do(func() { w.addr <- strings.TrimSpace(addr) })
		}
	}
	return len(p), nil
}

// startDaemon execs bin with default flags on an ephemeral loopback port
// and returns once /healthz answers 200.
func startDaemon(ctx context.Context, bin string, client *http.Client) (*daemon, error) {
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = aw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	select {
	case addr := <-aw.addr:
		d.base = "http://" + addr
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address", bin)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if resp, err := client.Get(d.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("%s: /healthz never answered 200", bin)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain hangs.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("rsonpathd did not drain within 15 s; killed")
	}
}

// counters scrapes the daemon's /metrics into name → value.
func (d *daemon) counters(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// post sends body to url and decodes a 200 response into v.
func post(ctx context.Context, client *http.Client, url, contentType string, body []byte, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

// answer is the oracle's (or the daemon's) verdict on one request.
type answer struct {
	count   int
	matched int      // ndjson: records with at least one match
	values  [32]byte // http: digest of the values array
}

// digestValues hashes a values array the way the daemon encodes it:
// compacted, HTML-escaped JSON, one value per line.
func digestValues(values [][]byte) [32]byte {
	h := sha256.New()
	for _, v := range values {
		h.Write(v)
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// served is the daemon side of the http and ndjson workloads: the client,
// the running daemon, and its counters after the last set-up.
type served struct {
	cfg    config
	client *http.Client
	d      *daemon
	before map[string]float64
}

// start replaces the daemon with a fresh one and warms it up with warm; the
// time from exec to the end of the warm-up is the set-up time.
func (s *served) start(ctx context.Context, warm func(context.Context) error) (time.Duration, error) {
	if err := s.d.stop(); err != nil {
		return 0, err
	}
	s.d = nil
	start := time.Now()
	d, err := startDaemon(ctx, s.cfg.daemon, s.client)
	if err != nil {
		return 0, err
	}
	s.d = d
	if err := warm(ctx); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	took := time.Since(start)
	s.before, err = d.counters(s.client)
	return took, err
}

func (s *served) pid() int  { return s.d.cmd.Process.Pid }
func (s *served) cpus() int { return runtime.GOMAXPROCS(0) }

// finish stops the daemon after folding its counters over the timed phase
// into r: sheds, degraded answers and error responses are failures even
// when no response showed them. It returns the counters' deltas, nil when
// no set-up completed.
func (s *served) finish(r *recorder) (map[string]float64, error) {
	if s.d == nil || s.before == nil {
		return nil, s.d.stop()
	}
	after, err := s.d.counters(s.client)
	if err != nil {
		s.d.stop()
		return nil, err
	}
	delta := map[string]float64{}
	var bad []string
	for k, v := range after {
		delta[k] = v - s.before[k]
		if delta[k] != 0 && (strings.HasPrefix(k, "rsonpathd_admission_shed_") || strings.HasPrefix(k, "rsonpathd_errors_") ||
			k == "rsonpathd_degraded_total" || k == "rsonpathd_panics_total") {
			bad = append(bad, fmt.Sprintf("%s=%g", k, delta[k]))
		}
	}
	if len(bad) > 0 && r.failed == 0 {
		r.fail(fmt.Errorf("daemon counters over the run: %s", strings.Join(bad, " ")))
	}
	return delta, s.d.stop()
}

// httpPool are the http workload's queries over Crossref documents: head
// skips, child chains, descendant chains and an index selector.
var httpPool = []string{
	"$..DOI",
	"$.items.*.title",
	"$..author..affiliation..name",
	"$.items.*.author.*.family",
	"$..editor..affiliation..name",
	"$.items.*.author.*.ORCID",
	"$.items[3].publisher",
	"$..title",
}

const (
	httpDocBytes      = 64 << 10
	httpHotDocs       = 8
	httpColdDocs      = 512 // more than the daemon's 128-entry doc cache holds
	httpHotShare      = 0.25
	httpConns         = 2
	httpRoundRequests = 128 // per connection
)

// httpLoad: raw-document POSTs with mode=values to a real rsonpathd.
// Operation = item = one request.
type httpLoad struct {
	served
	docs     [][]byte // hot documents first, then cold
	want     []answer // per doc × query
	urls     []string
	rngs     []*rand.Rand // one per connection
	coldNext atomic.Int64

	// Replay instruments of a traced run.
	cache  *rsonpath.QueryCache
	gate   *admission.Gate
	index  []*rsonpath.IndexedDocument // per hot document
	planes []*classifier.Planes        // per hot document
}

func (w *httpLoad) prepare(ctx context.Context) error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	parsed := make([]*jsonpath.Query, len(httpPool))
	for i, src := range httpPool {
		var err error
		if parsed[i], err = jsonpath.Parse(src); err != nil {
			return err
		}
	}
	for i := 0; i < httpHotDocs+httpColdDocs; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		doc, err := jsongen.Generate("crossref", httpDocBytes, rng.Int63())
		if err != nil {
			return err
		}
		root, err := dom.Parse(doc)
		if err != nil {
			return err
		}
		for _, q := range parsed {
			var values [][]byte
			for _, n := range dom.Eval(root, q, dom.NodeSemantics) {
				var b bytes.Buffer
				if err := json.Compact(&b, doc[n.Start:n.End]); err != nil {
					return err
				}
				var e bytes.Buffer
				json.HTMLEscape(&e, b.Bytes())
				values = append(values, e.Bytes())
			}
			w.want = append(w.want, answer{count: len(values), values: digestValues(values)})
		}
		w.docs = append(w.docs, doc)
	}
	for _, src := range httpPool {
		w.urls = append(w.urls, "/v1/query?mode=values&query="+url.QueryEscape(src))
	}
	for c := 0; c < httpConns; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(rng.Int63())))
	}
	w.coldNext.Store(rng.Int63n(httpColdDocs))
	if w.cfg.trace {
		w.cache = rsonpath.NewQueryCache(0)
		for _, src := range httpPool {
			if _, err := w.cache.Get(src); err != nil {
				return err
			}
		}
		procs := int64(runtime.GOMAXPROCS(0))
		w.gate = admission.NewGate(admission.GateConfig{Capacity: daemonGateCap * procs,
			QueueDepth: 2 * daemonGateCap * int(procs), BytesBudget: 512 << 20})
		for _, doc := range w.docs[:httpHotDocs] {
			idx, err := rsonpath.Index(doc)
			if err != nil {
				return err
			}
			w.index = append(w.index, idx)
			w.planes = append(w.planes, classifier.BuildPlanes(doc))
		}
	}
	return nil
}

// setUp starts a fresh daemon and sends each pool query once.
func (w *httpLoad) setUp(ctx context.Context) (time.Duration, error) {
	return w.start(ctx, func(ctx context.Context) error {
		for qi := range httpPool {
			if _, err := w.request(ctx, 0, qi); err != nil {
				return err
			}
		}
		return nil
	})
}

// request posts document doc with query qi and returns the daemon's answer.
func (w *httpLoad) request(ctx context.Context, doc, qi int) (answer, error) {
	var resp struct {
		Count    int               `json:"count"`
		Values   []json.RawMessage `json:"values"`
		Degraded bool              `json:"degraded"`
	}
	if err := post(ctx, w.client, w.d.base+w.urls[qi], "application/json", w.docs[doc], &resp); err != nil {
		return answer{}, err
	}
	if resp.Degraded {
		return answer{}, fmt.Errorf("degraded answer")
	}
	values := make([][]byte, len(resp.Values))
	for i, v := range resp.Values {
		values[i] = v
	}
	return answer{count: resp.Count, values: digestValues(values)}, nil
}

// next draws a request: a seeded share re-sends a hot document, the rest
// cycle through the cold documents, which the LRU evicts before they
// return.
func (w *httpLoad) next(rng *rand.Rand) (doc, qi int) {
	if rng.Float64() < httpHotShare {
		doc = rng.Intn(httpHotDocs)
	} else {
		doc = httpHotDocs + int(w.coldNext.Add(1)%httpColdDocs)
	}
	return doc, rng.Intn(len(httpPool))
}

func (w *httpLoad) round(ctx context.Context, r *recorder) error {
	if r.trace != nil { // traced runs use one connection
		return w.conn(ctx, r, 0)
	}
	recs := make([]*recorder, httpConns)
	errs := make([]error, httpConns)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = &recorder{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = w.conn(ctx, recs[c], c)
		}()
	}
	wg.Wait()
	for c, rc := range recs {
		r.merge(rc)
		if errs[c] != nil {
			return errs[c]
		}
	}
	return nil
}

// conn is one connection's closed loop for a round.
func (w *httpLoad) conn(ctx context.Context, r *recorder, c int) error {
	for i := 0; i < httpRoundRequests; i++ {
		doc, qi := w.next(w.rngs[c])
		start := time.Now()
		got, err := w.request(ctx, doc, qi)
		d := time.Since(start)
		if want := w.want[doc*len(httpPool)+qi]; err == nil && got != want {
			err = fmt.Errorf("document %d, %s: %d values, oracle %d (or values differ)", doc, httpPool[qi], got.count, want.count)
		}
		hot := doc < httpHotDocs
		name := "http.op.cold"
		if hot {
			name = "http.op.hot"
		}
		if op := r.op(name, start, d, 1, len(w.docs[doc]), err); op != 0 {
			if err := w.replay(ctx, r.trace, op, doc, qi); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay decomposes a request into the in-process calls the daemon makes
// for it (admission, digest, query cache, plan, supervised run, values,
// encoding), then the engine pass and the classification layers alone. The
// query compile replayPlan times is not on the request's path: the daemon
// serves the compiled query from its cache.
func (w *httpLoad) replay(ctx context.Context, t *tracer, op, doc, qi int) error {
	data, src := w.docs[doc], httpPool[qi]
	hot := doc < httpHotDocs
	var err error
	t.time(op, "admission.acquire", 1, 0, func() {
		var release func()
		if release, err = w.gate.Acquire(ctx, 1, int64(len(data))); err == nil {
			release()
		}
	})
	if err != nil {
		return err
	}
	t.time(op, "server.doc_digest", 1, len(data), func() { digestSink = sha256.Sum256(data) })
	var q *rsonpath.Query
	t.time(op, "rsonpath.query_cache_get", 1, 0, func() { q, err = w.cache.Get(src) })
	if err != nil {
		return err
	}
	plan, eng, run, err := replayPlan(t, op, q, rsonpath.DocStats{Bytes: len(data), Indexed: hot})
	if err != nil {
		return err
	}
	var offsets []int
	emit := func(pos int) { offsets = append(offsets, pos) }
	rctx, cancel := context.WithTimeout(ctx, daemonTimeout)
	if hot && plan.Strategy == "indexed" {
		t.time(op, "rsonpath.run_indexed_supervised", 1, len(data), func() { _, err = q.RunIndexedSupervised(rctx, w.index[doc], emit) })
	} else {
		t.time(op, "rsonpath.run_supervised", 1, len(data), func() { _, err = q.RunSupervised(rctx, data, emit) })
	}
	cancel()
	if err != nil {
		return err
	}
	var values []json.RawMessage
	t.time(op, "rsonpath.values", max(len(offsets), 1), 0, func() {
		for _, pos := range offsets {
			var v []byte
			if v, err = rsonpath.ValueAt(data, pos); err != nil {
				return
			}
			values = append(values, v)
		}
	})
	if err != nil {
		return err
	}
	t.time(op, "server.encode", 1, 0, func() {
		_, err = json.Marshal(&struct {
			Count         int               `json:"count"`
			Values        []json.RawMessage `json:"values,omitempty"`
			Engine        string            `json:"engine"`
			Attempts      int               `json:"attempts"`
			Degraded      bool              `json:"degraded"`
			DurationMS    float64           `json:"duration_ms"`
			DocumentCache string            `json:"document_cache,omitempty"`
			Plan          string            `json:"plan,omitempty"`
			PlanRule      string            `json:"plan_rule,omitempty"`
		}{Count: len(values), Values: values, Engine: "rsonpath", Attempts: 1, DocumentCache: "hit",
			Plan: plan.Strategy, PlanRule: plan.Rule})
	})
	if err != nil {
		return err
	}
	if hot {
		in := input.NewBytes(data)
		t.time(op, "engine.run_planes", 1, len(data), func() { err = eng.RunPlanes(in, w.planes[doc], func(int) {}) })
	} else {
		t.time(op, "engine.run", 1, len(data), func() { err = run.Run(data, func(int) {}) })
	}
	if err != nil {
		return err
	}
	replayKernels(t, op, data)
	return nil
}

func (w *httpLoad) path() []string {
	return []string{"admission.acquire", "server.doc_digest", "rsonpath.query_cache_get", "planner.explain",
		"rsonpath.run_supervised", "rsonpath.run_indexed_supervised", "rsonpath.values", "server.encode"}
}

func (w *httpLoad) close(r *recorder) error {
	delta, err := w.finish(r)
	if delta != nil {
		reqs := delta["rsonpathd_requests_total"]
		qcHits := delta["rsonpathd_query_cache_hits_total"]
		r.counters = map[string]float64{
			"server.doc_cache_hit_ratio":     delta["rsonpathd_doc_cache_hits_total"] / reqs,
			"rsonpath.query_cache_hit_ratio": qcHits / (qcHits + delta["rsonpathd_query_cache_misses_total"]),
			"planner.indexed_share":          delta["rsonpathd_plan_indexed_total"] / reqs,
			"server.requests_total":          reqs,
		}
	}
	return err
}

// ndjsonQueries alternate between batches.
var ndjsonQueries = []string{"$..affiliation..name", "$.author.*.family"}

const (
	ndjsonRecords = 1000 // per batch
	ndjsonBatches = 4
)

// ndjsonLoad: POSTs of NDJSON batches of Crossref items with mode=count.
// Operation = one batch request; item = one record.
type ndjsonLoad struct {
	served
	rng     *rand.Rand
	batches [][]byte
	records [][][]byte // per batch
	want    []answer   // per batch × query
	urls    []string
	// visited is the records the responses of the timed phase report as
	// matched: rsonpathd_ndjson_records_total counts the records the lines
	// pool hands to the handler, which in count mode are the matched ones
	// (failed and degraded records would count too; the run has none).
	visited int64

	// Replay instruments of a traced run: each query as the daemon
	// compiles it for NDJSON (watchdog in), and without the watchdog.
	lines, plain []*rsonpath.Query
}

func (w *ndjsonLoad) prepare(ctx context.Context) error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	parsed := make([]*jsonpath.Query, len(ndjsonQueries))
	for i, src := range ndjsonQueries {
		var err error
		if parsed[i], err = jsonpath.Parse(src); err != nil {
			return err
		}
	}
	for b := 0; b < ndjsonBatches; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		records, err := crossrefItems(w.rng.Int63(), ndjsonRecords)
		if err != nil {
			return err
		}
		want := make([]answer, len(parsed))
		for _, rec := range records {
			root, err := dom.Parse(rec)
			if err != nil {
				return err
			}
			for qi, q := range parsed {
				if n := len(dom.Eval(root, q, dom.NodeSemantics)); n > 0 {
					want[qi].count += n
					want[qi].matched++
				}
			}
		}
		w.records = append(w.records, records)
		w.batches = append(w.batches, append(bytes.Join(records, []byte("\n")), '\n'))
		w.want = append(w.want, want...)
	}
	for _, src := range ndjsonQueries {
		w.urls = append(w.urls, "/v1/query?mode=count&query="+url.QueryEscape(src))
	}
	if w.cfg.trace {
		for _, src := range ndjsonQueries {
			lq, err := rsonpath.Compile(src, rsonpath.WithTimeout(daemonTimeout))
			if err != nil {
				return err
			}
			pq, err := rsonpath.Compile(src)
			if err != nil {
				return err
			}
			w.lines, w.plain = append(w.lines, lq), append(w.plain, pq)
		}
	}
	return nil
}

// crossrefItems generates a Crossref document large enough for n items and
// returns its first n items, each one NDJSON record.
func crossrefItems(seed int64, n int) ([][]byte, error) {
	for size := n * 1024; ; size *= 2 {
		doc, err := jsongen.Generate("crossref", size, seed)
		if err != nil {
			return nil, err
		}
		root, err := dom.Parse(doc)
		if err != nil {
			return nil, err
		}
		for _, m := range root.Members {
			if string(m.Key) == "items" && len(m.Value.Elems) >= n {
				var out [][]byte
				for _, item := range m.Value.Elems[:n] {
					out = append(out, doc[item.Start:item.End])
				}
				return out, nil
			}
		}
	}
}

// setUp starts a fresh daemon and sends one batch per query.
func (w *ndjsonLoad) setUp(ctx context.Context) (time.Duration, error) {
	return w.start(ctx, func(ctx context.Context) error {
		for qi := range ndjsonQueries {
			if _, err := w.request(ctx, 0, qi); err != nil {
				return err
			}
		}
		return nil
	})
}

func (w *ndjsonLoad) request(ctx context.Context, b, qi int) (answer, error) {
	var resp struct {
		Count           int `json:"count"`
		RecordsMatched  int `json:"records_matched"`
		RecordsFailed   int `json:"records_failed"`
		RecordsDegraded int `json:"records_degraded"`
	}
	if err := post(ctx, w.client, w.d.base+w.urls[qi], "application/x-ndjson", w.batches[b], &resp); err != nil {
		return answer{}, err
	}
	if resp.RecordsFailed != 0 || resp.RecordsDegraded != 0 {
		return answer{}, fmt.Errorf("%d records failed, %d degraded", resp.RecordsFailed, resp.RecordsDegraded)
	}
	return answer{count: resp.Count, matched: resp.RecordsMatched}, nil
}

// round sends one batch per query, alternating the queries.
func (w *ndjsonLoad) round(ctx context.Context, r *recorder) error {
	for qi := range ndjsonQueries {
		b := w.rng.Intn(len(w.batches))
		start := time.Now()
		got, err := w.request(ctx, b, qi)
		d := time.Since(start)
		if want := w.want[b*len(ndjsonQueries)+qi]; err == nil && got != want {
			err = fmt.Errorf("batch %d, %s: count %d in %d records, oracle %d in %d",
				b, ndjsonQueries[qi], got.count, got.matched, want.count, want.matched)
		}
		w.visited += int64(got.matched)
		if op := r.op("ndjson.op", start, d, len(w.records[b]), len(w.batches[b]), err); op != 0 {
			if err := w.replay(ctx, r.trace, op, b, qi); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay decomposes a batch: the parallel lines pool the daemon runs, the
// sequential loop, and per record the supervised run with its watchdog,
// the bare Count and the engine pass.
func (w *ndjsonLoad) replay(ctx context.Context, t *tracer, op, b, qi int) error {
	body, records := w.batches[b], w.records[b]
	lq, pq := w.lines[qi], w.plain[qi]
	var err error
	visit := func(m rsonpath.LineMatch) error { return m.Err }
	t.time(op, "rsonpath.run_lines_parallel", len(records), len(body), func() {
		err = lq.RunLinesParallel(bytes.NewReader(body), runtime.GOMAXPROCS(0), visit)
	})
	if err != nil {
		return err
	}
	t.time(op, "rsonpath.run_lines", len(records), len(body), func() { err = lq.RunLines(bytes.NewReader(body), visit) })
	if err != nil {
		return err
	}
	n := 0
	for _, rec := range records {
		n += len(rec)
	}
	t.time(op, "rsonpath.record_supervised", len(records), n, func() {
		for _, rec := range records {
			if _, err = lq.RunSupervised(ctx, rec, func(int) {}); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	t.time(op, "rsonpath.record_count", len(records), n, func() {
		for _, rec := range records {
			if _, err = pq.Count(rec); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	_, _, run, err := replayPlan(t, op, pq, rsonpath.DocStats{})
	if err != nil {
		return err
	}
	t.time(op, "engine.record_run", len(records), n, func() {
		for _, rec := range records {
			if err = run.Run(rec, func(int) {}); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	replayKernels(t, op, body)
	return nil
}

func (w *ndjsonLoad) path() []string { return []string{"rsonpath.run_lines_parallel"} }

func (w *ndjsonLoad) close(r *recorder) error {
	delta, err := w.finish(r)
	if delta != nil {
		recs := delta["rsonpathd_ndjson_records_total"]
		if int64(recs) != w.visited && r.failed == 0 {
			r.fail(fmt.Errorf("daemon counted %g NDJSON records, its responses matched %d", recs, w.visited))
		}
		r.counters = map[string]float64{"server.ndjson_records_total": recs}
	}
	return err
}

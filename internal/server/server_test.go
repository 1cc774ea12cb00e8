package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rsonpath"
	"rsonpath/internal/simd"
)

// startServer boots a daemon on an ephemeral port and tears it down with
// the test. It returns the server (for seam injection) and its base URL.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		// The default transport may hold a keep-alive connection that never
		// carried a request; Shutdown waits up to 5 s for such connections,
		// which would race the drain deadline below.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, "http://" + s.Addr().String()
}

// envelope builds the request body by hand: json.Marshal would compact the
// RawMessage document, shifting every byte offset the tests assert on.
func envelope(req queryRequest) string {
	var parts []string
	if req.Query != "" {
		parts = append(parts, fmt.Sprintf(`"query": %q`, req.Query))
	}
	if req.Queries != nil {
		qs, _ := json.Marshal(req.Queries)
		parts = append(parts, `"queries": `+string(qs))
	}
	if len(req.Document) > 0 {
		parts = append(parts, `"document": `+string(req.Document))
	}
	if req.Mode != "" {
		parts = append(parts, fmt.Sprintf(`"mode": %q`, req.Mode))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// postQuery sends one single-document request and decodes the response.
func postQuery(t *testing.T, url string, req queryRequest) (int, queryResponse, errorBody, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(envelope(req)))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var ok queryResponse
	var bad errorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ok); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &bad); err != nil {
		t.Fatalf("decode error body %q: %v", raw, err)
	}
	return resp.StatusCode, ok, bad, resp.Header
}

// serveCases is the compliance subset the e2e tests replay over the wire.
var serveCases = []struct {
	name  string
	query string
	doc   string
	want  []string
}{
	{"dot child", "$.key", `{"key": "value"}`, []string{`"value"`}},
	{"nested children", "$.a.b.c", `{"a": {"b": {"c": 3}}}`, []string{`3`}},
	{"index", "$.a[1]", `{"a": [10, 20]}`, []string{`20`}},
	{"wildcard", "$.*", `{"a": 1, "b": 2}`, []string{`1`, `2`}},
	{"descendant", "$..key", `{"key": 1, "nest": {"key": 2, "arr": [{"key": 3}]}}`, []string{`1`, `2`, `3`}},
	{"descendant wildcard", "$..*", `{"a": {"b": 1}}`, []string{`{"b": 1}`, `1`}},
	{"union", "$['a','b']", `{"a": 1, "b": 2, "c": 3}`, []string{`1`, `2`}},
	{"no match", "$.missing", `{"key": 1}`, nil},
	{"deep mixed", "$.a..b.*", `{"a": [{"b": {"c": 1}}, {"b": [2]}]}`, []string{`1`, `2`}},
}

// TestServeCompliance replays the compliance subset over a real listener,
// three times per case: cold, index-build, and index-hit — the cached and
// uncached paths must agree bytewise.
func TestServeCompliance(t *testing.T) {
	_, url := startServer(t, Config{DocCacheSize: 32})
	for _, c := range serveCases {
		t.Run(c.name, func(t *testing.T) {
			wantStates := []string{"cold", "built", "hit"}
			for i, wantState := range wantStates {
				status, resp, _, _ := postQuery(t, url, queryRequest{
					Query: c.query, Document: json.RawMessage(c.doc),
				})
				if status != http.StatusOK {
					t.Fatalf("round %d: status %d", i, status)
				}
				if resp.DocumentCache != wantState {
					t.Fatalf("round %d: document_cache = %q, want %q", i, resp.DocumentCache, wantState)
				}
				if resp.Degraded {
					t.Fatalf("round %d: unexpected degradation: %s", i, resp.FallbackReason)
				}
				if resp.Count != len(c.want) {
					t.Fatalf("round %d: count = %d, want %d", i, resp.Count, len(c.want))
				}
				got := make([]string, len(resp.Values))
				for j, v := range resp.Values {
					got[j] = string(v)
				}
				for j := range c.want {
					// The response encoder compacts raw values; compare
					// whitespace-normalized.
					if got[j] != compactJSON(t, c.want[j]) {
						t.Fatalf("round %d: values = %q, want %q", i, got, c.want)
					}
				}
			}
		})
	}
}

// TestServeModes checks the offsets and count result shapes.
func TestServeModes(t *testing.T) {
	_, url := startServer(t, Config{})
	doc := json.RawMessage(`{"a": 1, "b": {"a": 22}}`)

	status, resp, _, _ := postQuery(t, url, queryRequest{Query: "$..a", Document: doc, Mode: "count"})
	if status != http.StatusOK || resp.Count != 2 || resp.Values != nil || resp.Offsets != nil {
		t.Fatalf("count mode: status %d resp %+v", status, resp)
	}
	status, resp, _, _ = postQuery(t, url, queryRequest{Query: "$..a", Document: doc, Mode: "offsets"})
	if status != http.StatusOK || len(resp.Offsets) != 2 {
		t.Fatalf("offsets mode: status %d resp %+v", status, resp)
	}
	if resp.Offsets[0] != 6 || resp.Offsets[1] != 20 {
		t.Fatalf("offsets = %v, want [6 20]", resp.Offsets)
	}
}

// TestServeMultiQuery checks the QuerySet path: per-query results in one
// shared pass.
func TestServeMultiQuery(t *testing.T) {
	_, url := startServer(t, Config{})
	status, resp, _, _ := postQuery(t, url, queryRequest{
		Queries:  []string{"$..a", "$.b"},
		Document: json.RawMessage(`{"a": 1, "b": {"a": 2}}`),
	})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if resp.Results[0].Count != 2 || resp.Results[1].Count != 1 {
		t.Fatalf("counts = %d, %d; want 2, 1", resp.Results[0].Count, resp.Results[1].Count)
	}
	if got := string(resp.Results[1].Values[0]); got != `{"a":2}` {
		t.Fatalf("values[1] = %q", got)
	}
	if resp.Count != 3 {
		t.Fatalf("total count = %d, want 3", resp.Count)
	}
}

// TestServeNDJSON drives the batch path: records in the body, query in the
// URL, per-record failures isolated.
func TestServeNDJSON(t *testing.T) {
	_, url := startServer(t, Config{Workers: 2})
	records := "{\"a\": 1}\n{\"a\": 2}\nnot json\n\n{\"b\": 3}\n"

	resp, err := http.Post(url+"/v1/query?query="+`%24.a`+"&mode=values",
		"application/x-ndjson", strings.NewReader(records))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var lr linesResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if lr.Count != 2 || lr.RecordsMatched != 2 {
		t.Fatalf("count = %d, matched = %d; want 2, 2", lr.Count, lr.RecordsMatched)
	}
	if lr.RecordsFailed != 1 || len(lr.Failures) != 1 || lr.Failures[0].Line != 3 {
		t.Fatalf("failures = %+v", lr.Failures)
	}
	if lr.Failures[0].Error.Kind != "malformed" {
		t.Fatalf("failure kind = %q, want malformed", lr.Failures[0].Error.Kind)
	}
	if got := string(lr.Results[0].Values[0]); got != "1" {
		t.Fatalf("first value = %q", got)
	}
	if lr.Results[1].Line != 2 || string(lr.Results[1].Values[0]) != "2" {
		t.Fatalf("second result = %+v", lr.Results[1])
	}
}

// TestServeErrorMapping checks that every failure class lands on its own
// status code with a typed JSON body.
func TestServeErrorMapping(t *testing.T) {
	_, url := startServer(t, Config{MaxMatches: 1, Timeout: time.Nanosecond})
	small := json.RawMessage(`{"a": 1}`)

	cases := []struct {
		name       string
		req        queryRequest
		wantStatus int
		wantKind   string
	}{
		{"missing query", queryRequest{Document: small}, http.StatusBadRequest, "bad_request"},
		{"missing document", queryRequest{Query: "$.a"}, http.StatusBadRequest, "bad_request"},
		{"both query forms", queryRequest{Query: "$.a", Queries: []string{"$.b"}, Document: small},
			http.StatusBadRequest, "bad_request"},
		{"bad query syntax", queryRequest{Query: "$[", Document: small},
			http.StatusBadRequest, "bad_request"},
		{"bad mode", queryRequest{Query: "$.a", Document: small, Mode: "verbose"},
			http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, _, bad, _ := postQuery(t, url, c.req)
			if status != c.wantStatus || bad.Error.Kind != c.wantKind {
				t.Fatalf("status %d kind %q, want %d %q", status, bad.Error.Kind, c.wantStatus, c.wantKind)
			}
		})
	}

	// The watchdog deadline (1ns here) must map to 408/timeout.
	t.Run("timeout", func(t *testing.T) {
		status, _, bad, _ := postQuery(t, url, queryRequest{Query: "$.a", Document: small})
		if status != http.StatusRequestTimeout || bad.Error.Kind != "timeout" {
			t.Fatalf("status %d kind %q, want 408 timeout", status, bad.Error.Kind)
		}
	})

	// Malformed and limit need a server without the instant deadline.
	_, url2 := startServer(t, Config{MaxMatches: 1})
	t.Run("malformed document", func(t *testing.T) {
		// The raw-document form skips envelope validation, so the engine's
		// own malformed-input verdict (with offset) reaches the wire.
		resp, err := http.Post(url2+"/v1/query?query=%24.a&mode=count",
			"application/json", strings.NewReader(`{"a": `))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var bad errorBody
		if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || bad.Error.Kind != "malformed" {
			t.Fatalf("status %d kind %q, want 422 malformed", resp.StatusCode, bad.Error.Kind)
		}
		if bad.Error.Offset == nil {
			t.Fatalf("malformed error carries no offset: %+v", bad)
		}
	})
	t.Run("malformed envelope document", func(t *testing.T) {
		// Inside the envelope the same defect is caught at envelope parse.
		status, _, bad, _ := postQuery(t, url2, queryRequest{
			Query: "$.a", Document: json.RawMessage(`{"a": `)})
		if status != http.StatusBadRequest || bad.Error.Kind != "bad_request" {
			t.Fatalf("status %d kind %q, want 400 bad_request", status, bad.Error.Kind)
		}
	})
	t.Run("match limit", func(t *testing.T) {
		status, _, bad, _ := postQuery(t, url2, queryRequest{
			Query: "$..a", Document: json.RawMessage(`{"a": 1, "b": {"a": 2}}`)})
		if status != http.StatusRequestEntityTooLarge || bad.Error.Kind != "limit" {
			t.Fatalf("status %d kind %q, want 413 limit", status, bad.Error.Kind)
		}
	})
	t.Run("invalid envelope", func(t *testing.T) {
		resp, err := http.Post(url2+"/v1/query", "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
	t.Run("body too large", func(t *testing.T) {
		_, url3 := startServer(t, Config{MaxBodyBytes: 64})
		big := queryRequest{Query: "$.a", Document: json.RawMessage(`"` + strings.Repeat("x", 256) + `"`)}
		status, _, bad, _ := postQuery(t, url3, big)
		if status != http.StatusRequestEntityTooLarge || bad.Error.Kind != "limit" {
			t.Fatalf("status %d kind %q, want 413 limit", status, bad.Error.Kind)
		}
	})
}

// degradedRunner is the test seam's stand-in for a query whose primary
// engine faulted and whose answer came from the DOM oracle: it emits the
// oracle's offsets and reports a degraded Outcome, exactly what
// RunSupervised produces after the ladder runs. The server must surface
// that in the response body, the degraded header, and the metrics.
type degradedRunner struct {
	offsets []int
	reason  error
}

func (d *degradedRunner) outcome() rsonpath.Outcome {
	return rsonpath.Outcome{Attempts: 2, Engine: "dom", FallbackReason: d.reason}
}

func (d *degradedRunner) RunSupervised(_ context.Context, _ []byte, emit func(pos int)) (rsonpath.Outcome, error) {
	for _, pos := range d.offsets {
		emit(pos)
	}
	return d.outcome(), nil
}

func (d *degradedRunner) RunIndexedSupervised(_ context.Context, _ *rsonpath.IndexedDocument, emit func(pos int)) (rsonpath.Outcome, error) {
	for _, pos := range d.offsets {
		emit(pos)
	}
	return d.outcome(), nil
}

func (d *degradedRunner) RunContext(_ context.Context, _ []byte, emit func(pos int)) error {
	for _, pos := range d.offsets {
		emit(pos)
	}
	return nil
}

func (d *degradedRunner) RunLinesParallel(r io.Reader, _ int, visit func(m rsonpath.LineMatch) error) error {
	oc := d.outcome()
	return visit(rsonpath.LineMatch{Line: 1, Record: []byte(`{}`), Offsets: d.offsets, Outcome: &oc})
}

func (d *degradedRunner) Explain(rsonpath.DocStats) rsonpath.Plan {
	return rsonpath.Plan{Strategy: "scan", Engine: rsonpath.EngineRsonpath, Rule: "test-fake"}
}

// TestServeDegraded injects a degraded outcome through the compile seam and
// asserts the request is answered (200), marked, and counted — the serving
// analogue of the CLI's exit code 6.
func TestServeDegraded(t *testing.T) {
	s, url := startServer(t, Config{})
	injected := errors.New("rsonpath: internal error in engine rsonpath: injected fault")
	degrade := func(string) (queryRunner, error) {
		return &degradedRunner{offsets: []int{6}, reason: injected}, nil
	}
	s.compileQuery = degrade
	s.compileLines = degrade

	status, resp, _, hdr := postQuery(t, url, queryRequest{
		Query: "$.a", Document: json.RawMessage(`{"a": 7}`)})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !resp.Degraded || resp.Engine != "dom" || resp.Attempts != 2 {
		t.Fatalf("outcome not surfaced: %+v", resp)
	}
	if !strings.Contains(resp.FallbackReason, "injected fault") {
		t.Fatalf("fallback_reason = %q", resp.FallbackReason)
	}
	if hdr.Get(degradedHeader) != "true" {
		t.Fatalf("degraded header missing")
	}
	if got := string(resp.Values[0]); got != "7" {
		t.Fatalf("degraded answer = %q, want 7", got)
	}
	if n := metricValue(t, url, "rsonpathd_degraded_total"); n != 1 {
		t.Fatalf("rsonpathd_degraded_total = %d, want 1", n)
	}
	// NDJSON records degrade per record.
	resp2, err := http.Post(url+"/v1/query?query=%24.a", "application/x-ndjson",
		strings.NewReader("{}\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var lr linesResponse
	if err := json.NewDecoder(resp2.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.RecordsDegraded != 1 || resp2.Header.Get(degradedHeader) != "true" {
		t.Fatalf("NDJSON degradation not surfaced: %+v header %q", lr, resp2.Header.Get(degradedHeader))
	}
	if n := metricValue(t, url, "rsonpathd_degraded_total"); n != 2 {
		t.Fatalf("rsonpathd_degraded_total = %d, want 2", n)
	}
}

// compactJSON whitespace-normalizes a JSON fragment the way the response
// encoder does.
func compactJSON(t *testing.T, s string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(s)); err != nil {
		t.Fatalf("compact %q: %v", s, err)
	}
	return buf.String()
}

// metricValue scrapes /metrics and returns the named series' value.
func metricValue(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, raw)
	return 0
}

// TestServeMetricsAndCacheCounters verifies the query-cache hit/miss
// counters travel through /metrics: the same query twice is one compile.
func TestServeMetricsAndCacheCounters(t *testing.T) {
	_, url := startServer(t, Config{})
	req := queryRequest{Query: "$..metric", Document: json.RawMessage(`{"metric": 1}`), Mode: "count"}
	for i := 0; i < 3; i++ {
		if status, _, _, _ := postQuery(t, url, req); status != http.StatusOK {
			t.Fatalf("round %d: status %d", i, status)
		}
	}
	if misses := metricValue(t, url, "rsonpathd_query_cache_misses_total"); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	if hits := metricValue(t, url, "rsonpathd_query_cache_hits_total"); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if n := metricValue(t, url, "rsonpathd_requests_total"); n != 3 {
		t.Fatalf("requests_total = %d, want 3", n)
	}
	// /healthz and /version answer too.
	for _, path := range []string{"/healthz", "/version"} {
		resp, err := http.Get(url + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %v (%v)", path, err, resp)
		}
		resp.Body.Close()
	}
}

// TestServeSimdBackendSurfaced forces each available classification backend
// in turn and asserts both /version and /metrics report it, so operators can
// always tell which kernels a process is running (DESIGN.md §16).
func TestServeSimdBackendSurfaced(t *testing.T) {
	prev := simd.Backend()
	defer func() {
		if err := simd.SetBackend(prev); err != nil {
			t.Fatalf("restoring backend %q: %v", prev, err)
		}
	}()
	_, url := startServer(t, Config{})
	for _, name := range simd.Backends() {
		if err := simd.SetBackend(name); err != nil {
			t.Fatalf("SetBackend(%q): %v", name, err)
		}
		get := func(path string) string {
			resp, err := http.Get(url + path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", path, resp.StatusCode, raw)
			}
			return string(raw)
		}
		var ver struct {
			Simd string `json:"simd"`
		}
		body := get("/version")
		if err := json.Unmarshal([]byte(body), &ver); err != nil {
			t.Fatalf("backend %s: /version %q: %v", name, body, err)
		}
		if ver.Simd != name {
			t.Errorf("backend %s: /version simd = %q", name, ver.Simd)
		}
		want := fmt.Sprintf("rsonpathd_simd_backend{name=%q} 1", name)
		if met := get("/metrics"); !strings.Contains(met, want) {
			t.Errorf("backend %s: /metrics missing %q", name, want)
		}
	}
}

// TestServeConcurrent hammers one daemon from many connections with a mixed
// workload under -race: every response must be well-formed and correct —
// zero dropped or garbled responses.
func TestServeConcurrent(t *testing.T) {
	_, url := startServer(t, Config{DocCacheSize: 16, Workers: 2})
	type workItem struct {
		req       queryRequest
		wantCount int
	}
	work := []workItem{
		{queryRequest{Query: "$..a", Document: json.RawMessage(`{"a": 1, "b": {"a": 2}}`), Mode: "count"}, 2},
		{queryRequest{Query: "$.b.a", Document: json.RawMessage(`{"a": 1, "b": {"a": 2}}`), Mode: "values"}, 1},
		{queryRequest{Queries: []string{"$..x", "$.y"}, Document: json.RawMessage(`{"x": [1], "y": {"x": 5}}`)}, 3},
		{queryRequest{Query: "$.nope", Document: json.RawMessage(`{"a": 1}`), Mode: "count"}, 0},
	}
	const goroutines = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				item := work[(g+i)%len(work)]
				body, _ := json.Marshal(item.req)
				resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, i, err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: read: %w", g, i, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d round %d: status %d: %s", g, i, resp.StatusCode, raw)
					return
				}
				var qr queryResponse
				if err := json.Unmarshal(raw, &qr); err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: garbled response %q: %w", g, i, raw, err)
					return
				}
				if qr.Count != item.wantCount {
					errs <- fmt.Errorf("goroutine %d round %d: count %d, want %d", g, i, qr.Count, item.wantCount)
					return
				}
				if qr.Degraded {
					errs <- fmt.Errorf("goroutine %d round %d: degraded: %s", g, i, qr.FallbackReason)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// slowRunner holds the handler long enough for shutdown to overlap it.
type slowRunner struct{ delay time.Duration }

func (sl *slowRunner) RunSupervised(ctx context.Context, _ []byte, emit func(pos int)) (rsonpath.Outcome, error) {
	select {
	case <-time.After(sl.delay):
	case <-ctx.Done():
		return rsonpath.Outcome{Attempts: 1, Engine: "slow"}, ctx.Err()
	}
	emit(0)
	return rsonpath.Outcome{Attempts: 1, Engine: "slow"}, nil
}

func (sl *slowRunner) RunIndexedSupervised(ctx context.Context, doc *rsonpath.IndexedDocument, emit func(pos int)) (rsonpath.Outcome, error) {
	return sl.RunSupervised(ctx, doc.Bytes(), emit)
}

func (sl *slowRunner) Explain(rsonpath.DocStats) rsonpath.Plan {
	return rsonpath.Plan{Strategy: "scan", Engine: rsonpath.EngineRsonpath, Rule: "test-fake"}
}

func (sl *slowRunner) RunLinesParallel(io.Reader, int, func(m rsonpath.LineMatch) error) error {
	return nil
}

func (sl *slowRunner) RunContext(ctx context.Context, data []byte, emit func(pos int)) error {
	_, err := sl.RunSupervised(ctx, data, emit)
	return err
}

// TestShutdownDrains verifies graceful shutdown: a request in flight when
// Shutdown is called still completes with a full response, the listener
// refuses new connections, and Shutdown returns once the request is done.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	s.compileQuery = func(string) (queryRunner, error) {
		return &slowRunner{delay: 300 * time.Millisecond}, nil
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	url := "http://" + s.Addr().String()

	type result struct {
		status int
		count  int
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		body := `{"query": "$.a", "document": {"a": 1}, "mode": "count"}`
		resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var qr queryResponse
		err = json.NewDecoder(resp.Body).Decode(&qr)
		reqDone <- result{status: resp.StatusCode, count: qr.Count, err: err}
	}()

	time.Sleep(100 * time.Millisecond) // let the request reach the slow handler
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownStart := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	res := <-reqDone
	if res.err != nil || res.status != http.StatusOK || res.count != 1 {
		t.Fatalf("in-flight request during drain: %+v", res)
	}
	if waited := time.Since(shutdownStart); waited < 100*time.Millisecond {
		t.Fatalf("shutdown returned in %v — before the in-flight request finished", waited)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatalf("listener still accepting after shutdown")
	}
}

// TestShutdownGoroutineAccounting starts a daemon, works it (including the
// NDJSON worker pool), shuts it down, and verifies the goroutine count
// returns to the baseline — the leak check the drain contract promises.
func TestShutdownGoroutineAccounting(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Addr: "127.0.0.1:0", Workers: 4, DocCacheSize: 8})
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	url := "http://" + s.Addr().String()

	client := &http.Client{}
	for i := 0; i < 10; i++ {
		body := strings.NewReader(`{"query": "$..a", "document": {"a": [1, {"a": 2}]}, "mode": "count"}`)
		resp, err := client.Post(url+"/v1/query", "application/json", body)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := client.Post(url+"/v1/query?query=%24.a", "application/x-ndjson",
		strings.NewReader("{\"a\": 1}\n{\"a\": 2}\n{\"b\": 3}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	client.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// Connections unwind asynchronously after Shutdown returns; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServePlanReporting: each response names the execution plan that
// served it, and /metrics counts served runs per strategy. The document
// cache's planner-driven promotion flips the plan from the cold scan to the
// indexed path on the second sighting.
func TestServePlanReporting(t *testing.T) {
	_, url := startServer(t, Config{DocCacheSize: 8})
	req := queryRequest{Query: "$.a.b", Document: json.RawMessage(`{"a": {"b": 1}}`), Mode: "count"}
	wantPlans := []struct{ plan, rule string }{
		{"scan", "child-skipping"},
		{"indexed", "indexed-available"},
		{"indexed", "indexed-available"},
	}
	for i, want := range wantPlans {
		status, resp, _, _ := postQuery(t, url, req)
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d", i, status)
		}
		if resp.Plan != want.plan || resp.PlanRule != want.rule {
			t.Fatalf("round %d: plan %q rule %q, want %q %q",
				i, resp.Plan, resp.PlanRule, want.plan, want.rule)
		}
	}
	status, resp, _, _ := postQuery(t, url, queryRequest{
		Query: "$..name", Document: json.RawMessage(`{"x": {"name": "y"}}`), Mode: "count"})
	if status != http.StatusOK {
		t.Fatalf("head-skip round: status %d", status)
	}
	if resp.Plan != "scan" || resp.PlanRule != "head-skip" {
		t.Fatalf("head-skip round: plan %q rule %q", resp.Plan, resp.PlanRule)
	}
	if n := metricValue(t, url, "rsonpathd_plan_scan_total"); n != 2 {
		t.Fatalf("plan_scan_total = %d, want 2", n)
	}
	if n := metricValue(t, url, "rsonpathd_plan_indexed_total"); n != 2 {
		t.Fatalf("plan_indexed_total = %d, want 2", n)
	}
}

// TestMetricsNamesPinned pins the /metrics series the repository's
// benchmark (cmd/rsonperf) reads. Its failure detection reads a missing
// series as 0, so renaming one of these would not fail the benchmark — it
// would silently switch the check off. Rename only together with rsonperf.
func TestMetricsNamesPinned(t *testing.T) {
	_, url := startServer(t, Config{})
	for _, name := range []string{
		"rsonpathd_requests_total",
		"rsonpathd_query_cache_hits_total",
		"rsonpathd_query_cache_misses_total",
		"rsonpathd_doc_cache_hits_total",
		"rsonpathd_plan_indexed_total",
		"rsonpathd_ndjson_records_total",
		"rsonpathd_degraded_total",
		"rsonpathd_panics_total",
		// rsonperf counts every series under these two prefixes as failures.
		"rsonpathd_errors_bad_request_total",
		"rsonpathd_errors_malformed_total",
		"rsonpathd_errors_limit_total",
		"rsonpathd_errors_timeout_total",
		"rsonpathd_errors_internal_total",
		"rsonpathd_errors_overload_total",
		"rsonpathd_admission_shed_queue_full_total",
		"rsonpathd_admission_shed_deadline_total",
		"rsonpathd_admission_shed_bytes_total",
		"rsonpathd_admission_shed_too_large_total",
	} {
		metricValue(t, url, name) // fails the test when the series is missing
	}
}

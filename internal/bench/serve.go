package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"text/tabwriter"
	"time"

	"rsonpath"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/loadgen"
	"rsonpath/internal/server"
)

// serveDocBytes is the target document size for the cache scenarios: small
// enough that per-request fixed costs (HTTP, compile) are a visible share
// of the latency, large enough that the engine does real scanning.
const serveDocBytes = 64 << 10

// serveRepeatDocBytes is the target size for the repeated-document
// scenarios: large enough that the classification pass a warm index skips
// stands clear of HTTP round-trip jitter.
const serveRepeatDocBytes = 512 << 10

// serveColdQueries is the pool of distinct query texts used to defeat the
// compiled-query cache in the cold scenario; the hot scenario reuses one of
// them so both scenarios perform the same head-skip scan.
const serveColdQueries = 32

// ServeHTTPStat is one end-to-end request-latency measurement against a
// live daemon.
type ServeHTTPStat struct {
	Name string `json:"name"`
	// Requests is the number of requests timed per sample.
	Requests int `json:"requests"`
	// MeanMicros is the mean end-to-end latency of one request.
	MeanMicros float64 `json:"mean_micros"`
}

// ServeReport is the serving experiment's machine-readable record
// (BENCH_serve.json).
type ServeReport struct {
	// DocBytes sizes the cache-scenario document, RepeatDocBytes the larger
	// one behind the repeated-document scenarios.
	DocBytes       int `json:"doc_bytes"`
	RepeatDocBytes int `json:"repeat_doc_bytes"`
	// ColdCompileMicros is the library-level cost of compiling one query
	// from scratch; CacheHitMicros the cost of fetching the same query from
	// a warm QueryCache. CacheSpeedup is their ratio.
	ColdCompileMicros float64 `json:"cold_compile_micros"`
	CacheHitMicros    float64 `json:"cache_hit_micros"`
	CacheSpeedup      float64 `json:"cache_speedup"`
	// HTTP holds the end-to-end scenarios: cold (every request compiles),
	// hot (every request hits the query cache), and indexed (hot query plus
	// a promoted document index) against its unindexed control.
	HTTP []ServeHTTPStat `json:"http"`
	// Load is a concurrent load-generator run against the hot path.
	Load loadgen.Report `json:"load"`
}

// serveDataset returns a crossref slice of roughly target bytes regardless
// of the harness scale factor.
func (h *Harness) serveDataset(target int) ([]byte, error) {
	p, ok := jsongen.ByName("crossref")
	if !ok {
		return nil, fmt.Errorf("bench: crossref profile missing")
	}
	extra := float64(target) / (float64(p.DefaultSize) * h.SizeFactor)
	return h.DatasetScaled("crossref", extra)
}

// coldQuery returns the i-th member of the distinct-query pool. The head
// label varies only in its numeric suffix, so every pool member performs
// the same never-matching head-skip scan and differs from its siblings only
// in cache identity. The deep descendant tail exists to make compilation
// (NFA determinization) expensive enough to resolve against HTTP round-trip
// noise in the end-to-end scenarios.
func coldQuery(i int) string {
	return fmt.Sprintf("$..affiliation%03d..b..c..d..e..f..g..h", i)
}

// RunServe measures the rsonpathd serving path: compiled-query cache hit
// versus cold compile (library-level and end-to-end over a real listener),
// the promoted document index versus unindexed evaluation, and a concurrent
// load-generator run.
func (h *Harness) RunServe() (ServeReport, error) {
	var rep ServeReport
	doc, err := h.serveDataset(serveDocBytes)
	if err != nil {
		return rep, err
	}
	repeatDoc, err := h.serveDataset(serveRepeatDocBytes)
	if err != nil {
		return rep, err
	}
	rep.DocBytes = len(doc)
	rep.RepeatDocBytes = len(repeatDoc)

	// Library level: compile from scratch vs warm cache fetch, over the same
	// query pool. The pool cycles so neither side benefits from residency in
	// CPU caches more than the other.
	queries := make([]string, serveColdQueries)
	for i := range queries {
		queries[i] = coldQuery(i)
	}
	cold, err := h.MeasureFunc(0, func() (int, error) {
		for _, q := range queries {
			if _, err := rsonpath.Compile(q); err != nil {
				return 0, err
			}
		}
		return len(queries), nil
	})
	if err != nil {
		return rep, err
	}
	cache := rsonpath.NewQueryCache(serveColdQueries * 2)
	for _, q := range queries {
		if _, err := cache.Get(q); err != nil {
			return rep, err
		}
	}
	hit, err := h.MeasureFunc(0, func() (int, error) {
		for _, q := range queries {
			if _, err := cache.Get(q); err != nil {
				return 0, err
			}
		}
		return len(queries), nil
	})
	if err != nil {
		return rep, err
	}
	rep.ColdCompileMicros = cold.Mean.Seconds() * 1e6 / serveColdQueries
	rep.CacheHitMicros = hit.Mean.Seconds() * 1e6 / serveColdQueries
	if rep.CacheHitMicros > 0 {
		rep.CacheSpeedup = rep.ColdCompileMicros / rep.CacheHitMicros
	}

	// End to end: one daemon with the document cache on, one control with it
	// off, both on loopback.
	base, stop, err := startServeDaemon(server.Config{Timeout: 10 * time.Second, DocCacheSize: 64})
	if err != nil {
		return rep, err
	}
	defer stop()
	ctrlBase, ctrlStop, err := startServeDaemon(server.Config{Timeout: 10 * time.Second, DocCacheSize: 0})
	if err != nil {
		return rep, err
	}
	defer ctrlStop()

	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	// Cold: a query text the daemon has never seen, every request. The
	// query-cache capacity (256 default) exceeds the pool, so purge pressure
	// comes from rotating a per-sample nonce into the text instead.
	nonce := 0
	coldHTTP, err := h.measureServeHTTP(client, ctrlBase, len(doc), serveColdQueries, func(i int) string {
		nonce++
		return fmt.Sprintf("$..affiliation%03d_%d..b..c..d..e..f..g..h", i, nonce)
	}, doc)
	if err != nil {
		return rep, fmt.Errorf("cold scenario: %w", err)
	}
	coldHTTP.Name = "cold_compile"
	rep.HTTP = append(rep.HTTP, coldHTTP)

	// Hot: one pool member repeated; after the first request every fetch is
	// a query-cache hit. Runs against the control daemon (doc cache off) so
	// it differs from cold only in cache identity.
	hotQuery := coldQuery(0)
	if err := primeServe(client, ctrlBase, hotQuery, doc); err != nil {
		return rep, err
	}
	hotHTTP, err := h.measureServeHTTP(client, ctrlBase, len(doc), serveColdQueries, func(int) string { return hotQuery }, doc)
	if err != nil {
		return rep, fmt.Errorf("hot scenario: %w", err)
	}
	hotHTTP.Name = "query_cache_hit"
	rep.HTTP = append(rep.HTTP, hotHTTP)

	// Indexed: a matching query over the same repeated document; the daemon
	// with the document cache promotes it to a mask index, the control scans
	// from scratch each time. Child-chain/wildcard shape on purpose: that is
	// the classification-dominated regime where a warm index pays (§11); a
	// head-skip descendant query would spend its time in memmem either way.
	matching := "$.items.*.author.*.affiliation.*.name"
	for _, prime := range []string{base, ctrlBase} {
		for i := 0; i < 3; i++ { // past the second-sighting promotion on the cached daemon
			if err := primeServe(client, prime, matching, repeatDoc); err != nil {
				return rep, err
			}
		}
	}
	unindexed, err := h.measureServeHTTP(client, ctrlBase, len(repeatDoc), 8, func(int) string { return matching }, repeatDoc)
	if err != nil {
		return rep, fmt.Errorf("unindexed scenario: %w", err)
	}
	unindexed.Name = "repeat_doc_unindexed"
	rep.HTTP = append(rep.HTTP, unindexed)
	indexed, err := h.measureServeHTTP(client, base, len(repeatDoc), 8, func(int) string { return matching }, repeatDoc)
	if err != nil {
		return rep, fmt.Errorf("indexed scenario: %w", err)
	}
	indexed.Name = "repeat_doc_indexed"
	rep.HTTP = append(rep.HTTP, indexed)

	// Concurrent load against the hot path, measured by the same client the
	// CI smoke uses.
	load, err := loadgen.Run(context.Background(), loadgen.Config{
		URL:         base + "/v1/query",
		Query:       matching,
		Mode:        "count",
		Document:    doc,
		Concurrency: 4,
		Requests:    64 * h.Samples,
	})
	if err != nil {
		return rep, fmt.Errorf("load run: %w", err)
	}
	rep.Load = load
	return rep, nil
}

// startServeDaemon boots a loopback daemon and returns its base URL and a
// stop func.
func startServeDaemon(cfg server.Config) (string, func(), error) {
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(cfg)
	if err := srv.Listen(); err != nil {
		return "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}
	return "http://" + srv.Addr().String(), stop, nil
}

// primeServe issues one request and discards the response.
func primeServe(client *http.Client, base, query string, doc []byte) error {
	resp, err := client.Post(base+"/v1/query?query="+url.QueryEscape(query)+"&mode=count", "application/octet-stream", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("prime request: HTTP %d", resp.StatusCode)
	}
	return nil
}

// measureServeHTTP times requestsPerSample sequential requests, each with
// the query produced by queryFor, and reports the mean per-request latency.
// The raw-document form keeps the request body identical across scenarios.
func (h *Harness) measureServeHTTP(client *http.Client, base string, docBytes, requestsPerSample int, queryFor func(i int) string, doc []byte) (ServeHTTPStat, error) {
	res, err := h.MeasureFunc(docBytes*requestsPerSample, func() (int, error) {
		for i := 0; i < requestsPerSample; i++ {
			if err := primeServe(client, base, queryFor(i), doc); err != nil {
				return 0, err
			}
		}
		return requestsPerSample, nil
	})
	if err != nil {
		return ServeHTTPStat{}, err
	}
	return ServeHTTPStat{
		Requests:   requestsPerSample,
		MeanMicros: res.Mean.Seconds() * 1e6 / float64(requestsPerSample),
	}, nil
}

// RenderServe prints the serving experiment.
func RenderServe(w io.Writer, rep ServeReport) {
	fmt.Fprintf(w, "documents: %d bytes (cache scenarios), %d bytes (repeat scenarios)\n",
		rep.DocBytes, rep.RepeatDocBytes)
	fmt.Fprintf(w, "compile cold %.1fµs  cache hit %.3fµs  (%.0fx)\n",
		rep.ColdCompileMicros, rep.CacheHitMicros, rep.CacheSpeedup)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\treq/sample\tmean latency")
	for _, s := range rep.HTTP {
		fmt.Fprintf(tw, "%s\t%d\t%.0fµs\n", s.Name, s.Requests, s.MeanMicros)
	}
	tw.Flush()
	fmt.Fprintf(w, "load: %d requests, c=4: %.0f req/s, p50 %.2fms p99 %.2fms, errors %d, non-200 %d, degraded %d\n",
		rep.Load.Requests, rep.Load.Throughput, rep.Load.LatencyP50MS, rep.Load.LatencyP99MS,
		rep.Load.Errors, rep.Load.NonOK, rep.Load.Degraded)
}

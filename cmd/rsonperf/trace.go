package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"rsonpath"
	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/engine"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/simd"
)

// span is one timed call. Operation spans have parent 0; the layer calls a
// traced operation replays are its children, so every span of one
// operation shares its op id.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Items is how many units the call processed (records, matches), for
	// per-item times; Bytes the document bytes it read, for throughput.
	Items int `json:"items"`
	Bytes int `json:"bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) add(op, parent int, name string, start time.Time, d time.Duration, items, bytes int) int {
	id := len(t.spans) + 1
	if op == 0 {
		op = id
	}
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: s, End: s + d.Nanoseconds(), Items: items, Bytes: bytes})
	return id
}

// op records an operation span and returns its id.
func (t *tracer) op(name string, start time.Time, d time.Duration, items, bytes int) int {
	return t.add(0, 0, name, start, d, items, bytes)
}

// time runs f in a span under operation op.
func (t *tracer) time(op int, name string, items, bytes int, f func()) {
	start := time.Now()
	f()
	t.add(op, op, name, start, time.Since(start), items, bytes)
}

// runner is the surface shared by the engine and its stackless variant.
type runner interface {
	Run(data []byte, emit func(pos int)) error
}

// replayPlan times the planner's decision and the query compiler, then
// builds the runner the plan names the way the library does (default
// limits). eng is the standard engine, whose RunPlanes serves indexed
// plans; run is the runner a scan executes.
func replayPlan(t *tracer, op int, q *rsonpath.Query, stats rsonpath.DocStats) (plan rsonpath.Plan, eng *engine.Engine, run runner, err error) {
	t.time(op, "planner.explain", 1, 0, func() { plan = q.Explain(stats) })
	var parsed *jsonpath.Query
	var dfa *automaton.DFA
	t.time(op, "automaton.compile", 1, 0, func() {
		if parsed, err = jsonpath.Parse(q.Source()); err == nil {
			dfa, err = automaton.Compile(parsed, automaton.Options{})
		}
	})
	if err != nil {
		return plan, nil, nil, err
	}
	eng = engine.New(dfa, engine.Options{MaxDepth: rsonpath.DefaultMaxDepth})
	if plan.Engine != rsonpath.EngineStackless {
		return plan, eng, eng, nil
	}
	sl, err := engine.NewStackless(parsed)
	if err != nil {
		return plan, nil, nil, err
	}
	sl.LimitDepth(rsonpath.DefaultMaxDepth)
	return plan, eng, sl, nil
}

// sink and digestSink keep the replays' results live.
var (
	sink       uint64
	digestSink [sha256.Size]byte
)

// replayKernels times the classification layers over doc: the per-block
// kernels classifier.Stream calls, the batch kernel on the active backend,
// the stream walk, and the plane build, whose planes it returns.
func replayKernels(t *tracer, op int, doc []byte) *classifier.Planes {
	n := len(doc) / simd.BlockSize
	t.time(op, "simd.per_block", 1, n*simd.BlockSize, func() {
		var b simd.Block
		for i := 0; i < n; i++ {
			simd.LoadBlock(&b, doc[i*simd.BlockSize:(i+1)*simd.BlockSize], ' ')
			backslash, quote := simd.CmpEq8Pair(&b, '\\', '"')
			opens, closes := simd.BracketMasks(&b)
			sink ^= backslash ^ quote ^ opens ^ closes ^ simd.CmpEq8(&b, ',') ^ simd.CmpEq8(&b, ':')
		}
	})
	masks := make([][]uint64, 6)
	for i := range masks {
		masks[i] = make([]uint64, n)
	}
	t.time(op, "simd.batch", 1, n*simd.BlockSize, func() {
		if blocks := simd.BatchRawMasks(doc, masks[0], masks[1], masks[2], masks[3], masks[4], masks[5]); blocks > 0 {
			sink ^= masks[1][blocks/2]
		}
	})
	t.time(op, "classifier.stream_walk", 1, len(doc), func() {
		s := classifier.NewStream(doc)
		for !s.Exhausted() {
			opens, closes := simd.BracketMasks(s.Block())
			notStr := ^s.InString()
			sink ^= s.QuoteMask() ^ (opens|closes|simd.CmpEq8(s.Block(), ',')|simd.CmpEq8(s.Block(), ':'))&notStr
			if !s.Advance() {
				break
			}
		}
	})
	var planes *classifier.Planes
	t.time(op, "classifier.build_planes", 1, len(doc), func() { planes = classifier.BuildPlanes(doc) })
	return planes
}

// layerDefs are the per-layer metrics of a traced run, the ones
// BENCHMARK.json lists. Every workload reports each of them, measured on
// its own operations' inputs.
var layerDefs = []metricDef{
	{"simd.per_block_gbps", "GB/s"},
	{"simd.batch_gbps", "GB/s"},
	{"classifier.stream_walk_gbps", "GB/s"},
	{"classifier.build_planes_gbps", "GB/s"},
	{"automaton.compile_us", "us"},
	{"planner.explain_us", "us"},
	{"engine.run_gbps", "GB/s"},
	{"rsonpath.query_gbps", "GB/s"},
	{"rsonpath.wrapper_share", "share"},
	{"server.transport_us", "us"},
	{"trace.overhead_share", "share"},
}

// Span groups behind the derived layer metrics: the engine pass an
// operation makes, the library call it makes, and the sequential library
// call that wraps the same engine pass.
var (
	engineSpans  = []string{"engine.run", "engine.run_planes", "engine.record_run"}
	librarySpans = []string{"rsonpath.count", "rsonpath.count_indexed", "rsonpath.run_supervised", "rsonpath.run_indexed_supervised", "rsonpath.run_lines_parallel"}
	wrapperSpans = []string{"rsonpath.count", "rsonpath.count_indexed", "rsonpath.run_supervised", "rsonpath.run_indexed_supervised", "rsonpath.run_lines"}
)

// ledgerRow is one span name's line of the ledger.
type ledgerRow struct {
	Name  string  `json:"name"`
	Spans int     `json:"spans"`
	P50us float64 `json:"p50_us_per_item"`
	GBps  float64 `json:"gbps,omitempty"`
}

func (l ledgerRow) String() string {
	s := fmt.Sprintf("ledger %-34s n=%-7d p50=%12.3f us/item", l.Name, l.Spans, l.P50us)
	if l.GBps > 0 {
		s += fmt.Sprintf("  %8.3f GB/s", l.GBps)
	}
	return s
}

// sums totals the spans of the named calls.
func (t *tracer) sums(names ...string) (d time.Duration, bytes, n int) {
	for _, s := range t.spans {
		if slices.Contains(names, s.Name) {
			d += s.dur()
			bytes += s.Bytes
			n++
		}
	}
	return d, bytes, n
}

func gbps(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }

// perItemUs is the p50 over the named spans of their time per item, in µs.
func (t *tracer) perItemUs(names ...string) (float64, int) {
	var xs []float64
	for _, s := range t.spans {
		if slices.Contains(names, s.Name) && s.Items > 0 {
			xs = append(xs, float64(s.dur())/float64(time.Microsecond)/float64(s.Items))
		}
	}
	return percentile(xs, 50), len(xs)
}

// residualUs is the p50 over operations of the operation's time minus its
// replayed path calls, in µs: for a request, what net/http, the loopback
// and the body copies cost.
func (t *tracer) residualUs(path []string) (float64, int) {
	onPath := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 && slices.Contains(path, s.Name) {
			onPath[s.Op] += s.dur()
		}
	}
	var xs []float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			xs = append(xs, float64(s.dur()-onPath[s.ID])/float64(time.Microsecond))
		}
	}
	return percentile(xs, 50), len(xs)
}

// finish derives the per-layer metrics and the ledger from the spans and
// writes the span file.
func (t *tracer) finish(cfg config, r *recorder, path []string, res *result) error {
	var names []string
	for _, s := range t.spans {
		if !slices.Contains(names, s.Name) {
			names = append(names, s.Name)
		}
	}
	for _, name := range names {
		d, bytes, n := t.sums(name)
		row := ledgerRow{Name: name, Spans: n}
		row.P50us, _ = t.perItemUs(name)
		if bytes > 0 {
			row.GBps = gbps(bytes, d)
		}
		res.Ledger = append(res.Ledger, row)
	}

	m := res.Metrics
	for _, k := range []struct{ metric, span string }{
		{"simd.per_block_gbps", "simd.per_block"},
		{"simd.batch_gbps", "simd.batch"},
		{"classifier.stream_walk_gbps", "classifier.stream_walk"},
		{"classifier.build_planes_gbps", "classifier.build_planes"},
	} {
		d, bytes, n := t.sums(k.span)
		m[k.metric] = metric{gbps(bytes, d), "GB/s", n}
	}
	v, n := t.perItemUs("automaton.compile")
	m["automaton.compile_us"] = metric{v, "us", n}
	v, n = t.perItemUs("planner.explain")
	m["planner.explain_us"] = metric{v, "us", n}
	engD, engB, engN := t.sums(engineSpans...)
	m["engine.run_gbps"] = metric{gbps(engB, engD), "GB/s", engN}
	libD, libB, libN := t.sums(librarySpans...)
	m["rsonpath.query_gbps"] = metric{gbps(libB, libD), "GB/s", libN}
	wrapD, _, wrapN := t.sums(wrapperSpans...)
	m["rsonpath.wrapper_share"] = metric{1 - engD.Seconds()/wrapD.Seconds(), "share", wrapN}
	v, n = t.residualUs(path)
	m["server.transport_us"] = metric{v, "us", n}
	m["trace.overhead_share"] = metric{percentile(r.tracedLat, 50)/percentile(r.lat, 50) - 1, "share", len(r.tracedLat)}
	for _, d := range layerDefs {
		if math.IsNaN(m[d.name].Value) || m[d.name].Samples == 0 {
			return fmt.Errorf("trace: no samples for %s", d.name)
		}
	}
	return t.write(cfg.spans)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

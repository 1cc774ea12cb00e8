package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"rsonpath"
	"rsonpath/internal/classifier"
	"rsonpath/internal/dom"
	"rsonpath/internal/input"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/jsonpath"
)

// scanPairs are the paper's (query, dataset) pairs of Appendix C. This is
// the benchmark's own copy, so an edit to the rsonbench lists cannot change
// what the scan workload measures.
var scanPairs = []struct{ id, dataset, query string }{
	{"A1", "ast", "$..decl.name"},
	{"A2", "ast", "$..inner..inner..type.qualType"},
	{"A3", "ast", "$..loc.includedFrom.file"},
	{"B1", "bestbuy", "$.products.*.categoryPath.*.id"},
	{"B1r", "bestbuy", "$..categoryPath..id"},
	{"B2", "bestbuy", "$.products.*.videoChapters.*.chapter"},
	{"B2r", "bestbuy", "$..videoChapters..chapter"},
	{"B3", "bestbuy", "$.products.*.videoChapters"},
	{"B3r", "bestbuy", "$..videoChapters"},
	{"C1", "crossref", "$..DOI"},
	{"C2", "crossref", "$.items.*.author.*.affiliation.*.name"},
	{"C2r", "crossref", "$..author..affiliation..name"},
	{"C3", "crossref", "$.items.*.editor.*.affiliation.*.name"},
	{"C3r", "crossref", "$..editor..affiliation..name"},
	{"C4", "crossref", "$.items.*.title"},
	{"C4r", "crossref", "$..title"},
	{"C5", "crossref", "$.items.*.author.*.ORCID"},
	{"C5r", "crossref", "$..author..ORCID"},
	{"G1", "googlemap", "$.*.routes.*.legs.*.steps.*.distance.text"},
	{"G2", "googlemap", "$.*.available_travel_modes"},
	{"G2r", "googlemap", "$..available_travel_modes"},
	{"N1", "nspl", "$.meta.view.columns.*.name"},
	{"N2", "nspl", "$.data.*.*.*"},
	{"O1", "openfood", "$.products.*.vitamins_tags"},
	{"O1r", "openfood", "$..vitamins_tags"},
	{"O2", "openfood", "$.products.*.added_countries_tags"},
	{"O2r", "openfood", "$..added_countries_tags"},
	{"O3", "openfood", "$.products.*.specific_ingredients.*.ingredient"},
	{"O3r", "openfood", "$..specific_ingredients..ingredient"},
	{"T1", "twitter", "$.*.entities.urls.*.url"},
	{"T2", "twitter", "$.*.text"},
	{"Ts", "twitter_small", "$.search_metadata.count"},
	{"Tsr", "twitter_small", "$..count"},
	{"Tsp", "twitter_small", "$..search_metadata.count"},
	{"Ts4", "twitter_small", "$..hashtags..text"},
	{"Ts5", "twitter_small", "$..retweeted_status..hashtags..text"},
	{"W1", "walmart", "$.items.*.bestMarketplacePrice.price"},
	{"W1r", "walmart", "$..bestMarketplacePrice.price"},
	{"W2", "walmart", "$.items.*.name"},
	{"W2r", "walmart", "$..name"},
	{"Wi", "wikimedia", "$.*.claims.P150.*.mainsnak.property"},
	{"Wir", "wikimedia", "$..P150..mainsnak.property"},
}

// repeatQueries are the indexed-repeat queries over the Crossref document:
// child chains and index selectors whose runs are dominated by
// classification and structural skipping, the work an index amortises.
var repeatQueries = []string{
	"$.items.*.DOI",
	"$.items.*.title",
	"$.items.*.type",
	"$.items.*.publisher",
	"$.items.*.author.*.given",
	"$.items.*.author.*.family",
	"$.items.*.author.*.affiliation.*.name",
	"$.items.*.reference.*.key",
	"$.items.*.author.*.ORCID",
	"$.items.*.author.*.sequence",
	"$.items.*.reference.*.DOI",
	"$.items.*.reference.*.unstructured",
	"$.items.*.editor.*.name",
	"$.items.*.editor.*.affiliation.*.name",
	"$.items.*.issued.date-parts",
	"$.items.*.title[0]",
	"$.items[0].DOI",
	"$.items[1].DOI",
	"$.items[2].title",
	"$.items[3].publisher",
	"$.items[4].author.*.given",
	"$.items[5].author.*.family",
	"$.items[6].reference.*.key",
	"$.items[7].type",
	"$.items[8].DOI",
	"$.items[9].title",
	"$.items[10].author.*.affiliation.*.name",
	"$.items[11].issued.date-parts",
	"$.items[12].publisher",
	"$.items[13].reference.*.DOI",
	"$.items[14].author.*.ORCID",
	"$.items[15].DOI",
}

// scanScale sizes the scan datasets at half the jsongen defaults (~61 MB
// in all): a 20 s run then holds over 1500 Counts, enough for a tail
// percentile, and preparing the inputs and the oracle takes about 2 s.
const scanScale = 0.5

// generate makes the named jsongen dataset at scale times its default size.
func generate(name string, scale float64, seed int64) ([]byte, error) {
	p, ok := jsongen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	return p.Generate(int(float64(p.DefaultSize)*scale), seed), nil
}

// oracleCount evaluates query over a parsed document with the DOM oracle.
func oracleCount(root *dom.Node, query string) (int, error) {
	parsed, err := jsonpath.Parse(query)
	if err != nil {
		return 0, err
	}
	return len(dom.Eval(root, parsed, dom.NodeSemantics)), nil
}

// scan: Query.Count over each (query, dataset) pair in a seeded shuffled
// order. Operation = one Count; item = one Count.
type scan struct {
	cfg     config
	rng     *rand.Rand
	data    map[string][]byte
	want    []int // oracle count per pair
	queries []*rsonpath.Query
}

func (w *scan) prepare(ctx context.Context) error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	w.data = map[string][]byte{}
	w.want = make([]int, len(scanPairs))
	var names []string
	for _, p := range scanPairs {
		if !slices.Contains(names, p.dataset) {
			names = append(names, p.dataset)
		}
	}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return err
		}
		doc, err := generate(name, scanScale*w.cfg.scale, w.rng.Int63())
		if err != nil {
			return err
		}
		root, err := dom.Parse(doc)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for i, p := range scanPairs {
			if p.dataset == name {
				if w.want[i], err = oracleCount(root, p.query); err != nil {
					return fmt.Errorf("%s: %w", p.id, err)
				}
			}
		}
		w.data[name] = doc
	}
	return nil
}

// setUp compiles every query and runs each pair once untimed.
func (w *scan) setUp(context.Context) (time.Duration, error) {
	start := time.Now()
	w.queries = make([]*rsonpath.Query, len(scanPairs))
	for i, p := range scanPairs {
		q, err := rsonpath.Compile(p.query)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.id, err)
		}
		w.queries[i] = q
	}
	for i, p := range scanPairs {
		if _, err := w.queries[i].Count(w.data[p.dataset]); err != nil {
			return 0, fmt.Errorf("%s: %w", p.id, err)
		}
	}
	return time.Since(start), nil
}

func (w *scan) round(_ context.Context, r *recorder) error {
	for _, i := range w.rng.Perm(len(scanPairs)) {
		p, doc := scanPairs[i], w.data[scanPairs[i].dataset]
		start := time.Now()
		n, err := w.queries[i].Count(doc)
		d := time.Since(start)
		if err == nil && n != w.want[i] {
			err = fmt.Errorf("%s: %d matches, oracle %d", p.id, n, w.want[i])
		}
		if op := r.op("scan.op", start, d, 1, len(doc), err); op != 0 {
			if err := w.replay(r.trace, op, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay decomposes a Count: the library call, the runner it plans, the
// engine pass alone, and the classification layers over the same bytes.
func (w *scan) replay(t *tracer, op, i int) error {
	doc, q := w.data[scanPairs[i].dataset], w.queries[i]
	var err error
	t.time(op, "rsonpath.count", 1, len(doc), func() { _, err = q.Count(doc) })
	if err != nil {
		return err
	}
	_, _, run, err := replayPlan(t, op, q, rsonpath.DocStats{Bytes: len(doc)})
	if err != nil {
		return err
	}
	t.time(op, "engine.run", 1, len(doc), func() { err = run.Run(doc, func(int) {}) })
	if err != nil {
		return err
	}
	replayKernels(t, op, doc)
	return nil
}

func (w *scan) pid() int                { return os.Getpid() }
func (w *scan) cpus() int               { return 1 }
func (w *scan) path() []string          { return []string{"rsonpath.count"} }
func (w *scan) close(r *recorder) error { return nil }

// repeat: Index once, then CountIndexed for every repeat query in a seeded
// order. Operation = one CountIndexed; item = one query. The index build is
// in the wall time (ops_per_s) but in no operation's latency.
type repeat struct {
	cfg     config
	rng     *rand.Rand
	doc     []byte
	want    []int // oracle count per query
	queries []*rsonpath.Query
}

func (w *repeat) prepare(context.Context) error {
	w.rng = rand.New(rand.NewSource(w.cfg.seed))
	doc, err := generate("crossref", w.cfg.scale, w.rng.Int63())
	if err != nil {
		return err
	}
	root, err := dom.Parse(doc)
	if err != nil {
		return err
	}
	w.want = make([]int, len(repeatQueries))
	for i, src := range repeatQueries {
		if w.want[i], err = oracleCount(root, src); err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
	}
	w.doc = doc
	return nil
}

// setUp compiles every query and runs one untimed round: an index build
// and each query once.
func (w *repeat) setUp(context.Context) (time.Duration, error) {
	start := time.Now()
	w.queries = make([]*rsonpath.Query, len(repeatQueries))
	for i, src := range repeatQueries {
		q, err := rsonpath.Compile(src)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", src, err)
		}
		w.queries[i] = q
	}
	idx, err := rsonpath.Index(w.doc)
	if err != nil {
		return 0, err
	}
	for _, q := range w.queries {
		if _, err := q.CountIndexed(idx); err != nil {
			return 0, fmt.Errorf("%s: %w", q.Source(), err)
		}
	}
	return time.Since(start), nil
}

func (w *repeat) round(_ context.Context, r *recorder) error {
	idx, err := rsonpath.Index(w.doc)
	if err != nil {
		return err
	}
	var planes *classifier.Planes // built by the round's first replay
	for _, i := range w.rng.Perm(len(w.queries)) {
		start := time.Now()
		n, err := w.queries[i].CountIndexed(idx)
		d := time.Since(start)
		if err == nil && n != w.want[i] {
			err = fmt.Errorf("%s: %d matches, oracle %d", repeatQueries[i], n, w.want[i])
		}
		op := r.op("repeat.op", start, d, 1, len(w.doc), err)
		if op == 0 {
			continue
		}
		if planes == nil {
			t := r.trace
			t.time(op, "rsonpath.index", 1, len(w.doc), func() { _, err = rsonpath.Index(w.doc) })
			if err != nil {
				return err
			}
			planes = replayKernels(t, op, w.doc)
		}
		if err := w.replay(r.trace, op, i, idx, planes); err != nil {
			return err
		}
	}
	return nil
}

// replay decomposes a CountIndexed: the library call and the engine's
// plane-fed pass over the same planes.
func (w *repeat) replay(t *tracer, op, i int, idx *rsonpath.IndexedDocument, planes *classifier.Planes) error {
	q := w.queries[i]
	var err error
	t.time(op, "rsonpath.count_indexed", 1, len(w.doc), func() { _, err = q.CountIndexed(idx) })
	if err != nil {
		return err
	}
	_, eng, _, err := replayPlan(t, op, q, rsonpath.DocStats{Bytes: len(w.doc), Indexed: true})
	if err != nil {
		return err
	}
	in := input.NewBytes(w.doc)
	t.time(op, "engine.run_planes", 1, len(w.doc), func() { err = eng.RunPlanes(in, planes, func(int) {}) })
	return err
}

func (w *repeat) pid() int                { return os.Getpid() }
func (w *repeat) cpus() int               { return 1 }
func (w *repeat) path() []string          { return []string{"rsonpath.count_indexed"} }
func (w *repeat) close(r *recorder) error { return nil }

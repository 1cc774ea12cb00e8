package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rsonpath"
	"rsonpath/internal/engine"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/ski"
	"rsonpath/internal/surfer"
)

// Harness generates datasets on demand, caches them, and measures query
// throughput following the paper's methodology (§5.1): warm-up iterations
// to fill caches, then timed samples whose mean yields the reported
// throughput.
type Harness struct {
	// SizeFactor scales every dataset's default size (1.0 = DESIGN.md's
	// defaults, which are ~1/64 of the paper's). Benchmarks in tests use a
	// smaller factor.
	SizeFactor float64
	// Samples is the number of timed runs per measurement.
	Samples int
	// Warmup is the number of untimed runs before measuring.
	Warmup int
	// Seed feeds the dataset generators.
	Seed int64

	mu    sync.Mutex
	cache map[string][]byte
}

// NewHarness returns a harness with the paper-shaped defaults.
func NewHarness() *Harness {
	return &Harness{SizeFactor: 1.0, Samples: 5, Warmup: 1, Seed: 42}
}

// Dataset returns the named dataset at the harness scale, cached.
func (h *Harness) Dataset(name string) ([]byte, error) {
	return h.DatasetScaled(name, 1.0)
}

// DatasetScaled returns the named dataset scaled by an extra factor on top
// of the harness factor (Experiment D uses this).
func (h *Harness) DatasetScaled(name string, extra float64) ([]byte, error) {
	p, ok := jsongen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
	target := int(float64(p.DefaultSize) * h.SizeFactor * extra)
	key := fmt.Sprintf("%s@%d", name, target)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cache == nil {
		h.cache = make(map[string][]byte)
	}
	if d, ok := h.cache[key]; ok {
		return d, nil
	}
	d, err := jsongen.Generate(name, target, h.Seed)
	if err != nil {
		return nil, err
	}
	h.cache[key] = d
	return d, nil
}

// Result is one measurement.
type Result struct {
	ID      string
	Dataset string
	Query   string
	Engine  string
	Bytes   int
	Matches int
	Mean    time.Duration
	StdDev  time.Duration
	// GBps is mean throughput in gigabytes (1e9) per second, the unit of
	// the paper's figures.
	GBps float64
	// Unsupported marks engine/query combinations outside the engine's
	// fragment (JSONSki with descendants), rendered as missing bars.
	Unsupported bool
}

// Unsupported reports a compile error that marks a query outside the
// engine's fragment: JSONSki's, or the depth-register automaton's
// descendant-only label chains.
func Unsupported(err error) bool {
	return errors.Is(err, ski.ErrUnsupported) || errors.Is(err, engine.ErrNotStackless)
}

// MeasureFunc times f (which returns a match count) per the harness
// configuration.
func (h *Harness) MeasureFunc(bytes int, f func() (int, error)) (Result, error) {
	var res Result
	res.Bytes = bytes
	for i := 0; i < h.Warmup; i++ {
		if _, err := f(); err != nil {
			return res, err
		}
	}
	samples := make([]float64, h.Samples)
	for i := range samples {
		start := time.Now()
		n, err := f()
		samples[i] = time.Since(start).Seconds()
		if err != nil {
			return res, err
		}
		res.Matches = n
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	variance := 0.0
	for _, s := range samples {
		variance += (s - mean) * (s - mean)
	}
	if len(samples) > 1 {
		variance /= float64(len(samples) - 1)
	}
	res.Mean = time.Duration(mean * float64(time.Second))
	res.StdDev = time.Duration(math.Sqrt(variance) * float64(time.Second))
	if mean > 0 {
		res.GBps = float64(bytes) / mean / 1e9
	}
	return res, nil
}

// RunSpec measures one query on one variant; the result is labelled with
// the variant.
func (h *Harness) RunSpec(spec Spec, v Variant) (Result, error) {
	data, err := h.Dataset(spec.Dataset)
	if err != nil {
		return Result{}, err
	}
	c, err := v.Compile(spec.Query)
	if Unsupported(err) {
		return Result{ID: spec.ID, Dataset: spec.Dataset, Query: spec.Query,
			Engine: v.Label, Unsupported: true}, nil
	}
	if err != nil {
		return Result{}, err
	}
	res, err := h.MeasureFunc(len(data), func() (int, error) { return c.Count(data) })
	if err != nil {
		return Result{}, err
	}
	res.ID, res.Dataset, res.Query, res.Engine = spec.ID, spec.Dataset, spec.Query, v.Label
	return res, nil
}

// Counter is the surface every measured engine shares: a compiled query
// that counts its matches in a document.
type Counter interface {
	Count(data []byte) (int, error)
}

// Variant is one labelled engine of a comparative experiment: the label
// its results carry and the constructor of the engine it measures.
type Variant struct {
	Label   string
	Compile func(query string) (Counter, error)
}

// library compiles query with the public API's defaults: the engine as
// shipped.
func library(query string) (Counter, error) { return rsonpath.Compile(query) }

// Engines used across the comparative experiments: the library and the
// paper's two comparison systems (§5), which exist only here.
var Engines = []Variant{
	{"rsonpath", library},
	{"ski", func(query string) (Counter, error) { return ski.CompileQuery(query) }},
	{"surfer", compileSurfer},
}

// compileSurfer builds the JsonSurfer analogue under the library's default
// depth limit.
func compileSurfer(query string) (Counter, error) {
	sf, err := surfer.CompileQuery(query)
	if err != nil {
		return nil, err
	}
	sf.LimitDepth(rsonpath.DefaultMaxDepth)
	return sf, nil
}

// compileStackless builds the depth-register automaton of §3.2 under the
// library's default depth limit.
func compileStackless(query string) (Counter, error) {
	parsed, err := jsonpath.Parse(query)
	if err != nil {
		return nil, err
	}
	sl, err := engine.NewStackless(parsed)
	if err != nil {
		return nil, err
	}
	sl.LimitDepth(rsonpath.DefaultMaxDepth)
	return sl, nil
}

// accelerated is the variant labelled label that runs the accelerated
// engine with the given skipping toggles, under the library's default
// depth limit.
func accelerated(label string, opts engine.Options) Variant {
	opts.MaxDepth = rsonpath.DefaultMaxDepth
	return Variant{label, func(query string) (Counter, error) {
		return engine.CompileQuery(query, opts)
	}}
}

// RunGrid measures the given specs on all engines (Appendix C's grid).
func (h *Harness) RunGrid(specs []Spec) ([]Result, error) {
	var out []Result
	for _, spec := range specs {
		for _, v := range Engines {
			r, err := h.RunSpec(spec, v)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", spec.ID, v.Label, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// ScalabilityPoint is one Experiment D measurement.
type ScalabilityPoint struct {
	SizeBytes int
	GBps      float64
	Matches   int
}

// RunScalability reproduces Experiment D (Table 7): the query
// $..affiliation..name over Crossref fragments of increasing size.
func (h *Harness) RunScalability(factors []float64) ([]ScalabilityPoint, error) {
	q, err := rsonpath.Compile("$..affiliation..name")
	if err != nil {
		return nil, err
	}
	var out []ScalabilityPoint
	for _, f := range factors {
		data, err := h.DatasetScaled("crossref", f)
		if err != nil {
			return nil, err
		}
		res, err := h.MeasureFunc(len(data), func() (int, error) { return q.Count(data) })
		if err != nil {
			return nil, err
		}
		out = append(out, ScalabilityPoint{SizeBytes: len(data), GBps: res.GBps, Matches: res.Matches})
	}
	return out, nil
}

// StacklessQuery is the descendant-only chain the §3.2 comparison runs.
const StacklessQuery = "$..affiliation..name"

// StacklessVariants are the §3.2 simulation strategies: the full engine
// (head-skip + depth-stack), the pure depth-stack simulation (head-skip
// off), and the depth-register automaton.
var StacklessVariants = []Variant{
	accelerated("engine", engine.Options{}),
	accelerated("depth-stack-only", engine.Options{DisableHeadSkip: true}),
	{"depth-registers", compileStackless},
}

// RunStackless compares the StacklessVariants on StacklessQuery.
func (h *Harness) RunStackless() ([]Result, error) {
	spec := Spec{ID: "S2", Dataset: "crossref", Query: StacklessQuery}
	var out []Result
	for _, v := range StacklessVariants {
		res, err := h.RunSpec(spec, v)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Table3Row is one dataset-characteristics row.
type Table3Row struct {
	Name  string
	Stats jsongen.Stats
}

// RunTable3 measures the generated datasets' characteristics.
func (h *Harness) RunTable3() ([]Table3Row, error) {
	var out []Table3Row
	for _, p := range jsongen.Profiles() {
		data, err := h.Dataset(p.Name)
		if err != nil {
			return nil, err
		}
		st, err := jsongen.Measure(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		out = append(out, Table3Row{Name: p.Name, Stats: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// AblationVariants are the engine configurations of the ablation study.
var AblationVariants = []Variant{
	accelerated("full", engine.Options{}),
	accelerated("no-headskip", engine.Options{DisableHeadSkip: true}),
	accelerated("no-skip-children", engine.Options{DisableSkipChildren: true}),
	accelerated("no-skip-siblings", engine.Options{DisableSkipSiblings: true}),
	accelerated("no-skip-leaves", engine.Options{DisableSkipLeaves: true}),
	accelerated("no-skipping", engine.Options{
		DisableHeadSkip: true, DisableSkipChildren: true, DisableSkipSiblings: true, DisableSkipLeaves: true,
	}),
	accelerated("+tail-skip", engine.Options{EnableTailSkip: true}),
}

// RunAblation measures the accelerated engine's variants on the given
// specs.
func (h *Harness) RunAblation(specs []Spec) ([]Result, error) {
	var out []Result
	for _, spec := range specs {
		for _, v := range AblationVariants {
			r, err := h.RunSpec(spec, v)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", spec.ID, v.Label, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

package bench

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rsonpath"
	"rsonpath/internal/jsongen"
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

// ErrUnsupported marks engine/query pairs outside the engine's fragment.
var ErrUnsupported = errors.New("bench: unsupported engine/query combination")

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

// RunSpec measures one query on one engine.
func (h *Harness) RunSpec(spec Spec, kind rsonpath.EngineKind) (Result, error) {
	data, err := h.Dataset(spec.Dataset)
	if err != nil {
		return Result{}, err
	}
	q, err := rsonpath.Compile(spec.Query, rsonpath.WithEngine(kind))
	if errors.Is(err, rsonpath.ErrUnsupportedQuery) {
		return Result{ID: spec.ID, Dataset: spec.Dataset, Query: spec.Query,
			Engine: kind.String(), Unsupported: true}, nil
	}
	if err != nil {
		return Result{}, err
	}
	res, err := h.MeasureFunc(len(data), func() (int, error) { return q.Count(data) })
	if err != nil {
		return Result{}, err
	}
	res.ID, res.Dataset, res.Query, res.Engine = spec.ID, spec.Dataset, spec.Query, kind.String()
	return res, nil
}

// RunVariant measures one labelled variant on a spec (the ablation and
// stackless experiments); the result is labelled with the variant.
func (h *Harness) RunVariant(spec Spec, v Variant) (Result, error) {
	data, err := h.Dataset(spec.Dataset)
	if err != nil {
		return Result{}, err
	}
	q, err := CompileVariant(spec.Query, v)
	if err != nil {
		return Result{}, err
	}
	res, err := h.MeasureFunc(len(data), func() (int, error) { return q.Count(data) })
	if err != nil {
		return Result{}, err
	}
	res.ID, res.Dataset, res.Query, res.Engine = spec.ID, spec.Dataset, spec.Query, v.Label
	return res, nil
}

// Engines used across the comparative experiments.
var Engines = []rsonpath.EngineKind{
	rsonpath.EngineRsonpath,
	rsonpath.EngineSki,
	rsonpath.EngineSurfer,
}

// RunGrid measures the given specs on all engines (Appendix C's grid).
func (h *Harness) RunGrid(specs []Spec) ([]Result, error) {
	var out []Result
	for _, spec := range specs {
		for _, kind := range Engines {
			r, err := h.RunSpec(spec, kind)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", spec.ID, kind, err)
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

// Variant is one labelled configuration of a comparative experiment, and
// the engine its label claims to measure.
type Variant struct {
	Label  string
	Engine rsonpath.EngineKind
	Opts   []rsonpath.Option
}

// CompileVariant compiles query under v's options and fails when the plan
// of a cold run names an engine other than v.Engine — the guard that keeps
// an experiment from silently measuring the wrong engine under the right
// label.
func CompileVariant(query string, v Variant) (*rsonpath.Query, error) {
	q, err := rsonpath.Compile(query, v.Opts...)
	if err != nil {
		return nil, err
	}
	if got := q.Explain(rsonpath.DocStats{}).Engine; got != v.Engine {
		return nil, fmt.Errorf("variant %s of %s runs engine %s, but its label names %s",
			v.Label, query, got, v.Engine)
	}
	return q, nil
}

// StacklessQuery is the descendant-only chain the §3.2 comparison runs.
const StacklessQuery = "$..affiliation..name"

// StacklessVariants are the §3.2 simulation strategies: the full engine
// (head-skip + depth-stack), the pure depth-stack simulation (head-skip
// off), and the depth-register automaton.
var StacklessVariants = []Variant{
	{"engine", rsonpath.EngineRsonpath, nil},
	{"depth-stack-only", rsonpath.EngineRsonpath,
		[]rsonpath.Option{rsonpath.WithOptimizations(rsonpath.Optimizations{NoHeadSkip: true})}},
	{"depth-registers", rsonpath.EngineStackless,
		[]rsonpath.Option{rsonpath.WithEngine(rsonpath.EngineStackless)}},
}

// RunStackless compares the StacklessVariants on StacklessQuery.
func (h *Harness) RunStackless() ([]Result, error) {
	spec := Spec{ID: "S2", Dataset: "crossref", Query: StacklessQuery}
	var out []Result
	for _, v := range StacklessVariants {
		res, err := h.RunVariant(spec, v)
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

// ablation is one AblationVariants entry: the accelerated engine with the
// given skipping toggles.
func ablation(label string, opt rsonpath.Optimizations) Variant {
	return Variant{label, rsonpath.EngineRsonpath, []rsonpath.Option{rsonpath.WithOptimizations(opt)}}
}

// AblationVariants are the engine configurations of the ablation study.
var AblationVariants = []Variant{
	ablation("full", rsonpath.Optimizations{}),
	ablation("no-headskip", rsonpath.Optimizations{NoHeadSkip: true}),
	ablation("no-skip-children", rsonpath.Optimizations{NoSkipChildren: true}),
	ablation("no-skip-siblings", rsonpath.Optimizations{NoSkipSiblings: true}),
	ablation("no-skip-leaves", rsonpath.Optimizations{NoSkipLeaves: true}),
	ablation("no-skipping", rsonpath.Optimizations{
		NoHeadSkip: true, NoSkipChildren: true, NoSkipSiblings: true, NoSkipLeaves: true,
	}),
	ablation("+tail-skip", rsonpath.Optimizations{TailSkip: true}),
}

// RunAblation measures the accelerated engine's variants on the given
// specs.
func (h *Harness) RunAblation(specs []Spec) ([]Result, error) {
	var out []Result
	for _, spec := range specs {
		for _, v := range AblationVariants {
			r, err := h.RunVariant(spec, v)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", spec.ID, v.Label, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}

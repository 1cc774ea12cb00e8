package rsonpath

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"rsonpath/internal/automaton"
	"rsonpath/internal/dom"
	"rsonpath/internal/engine"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/planner"
	"rsonpath/internal/ski"
	"rsonpath/internal/surfer"
)

// errPathSemantics rejects PathSemantics on streaming engines: reproducing
// access-path multiplicities would require unbounded working memory (§2).
var errPathSemantics = errors.New("rsonpath: path semantics requires EngineDOM")

// EngineKind selects the execution engine backing a Query.
type EngineKind int

const (
	// EngineRsonpath is the paper's engine: batched classification, skipping,
	// depth-stack simulation. The default.
	EngineRsonpath EngineKind = iota
	// EngineSurfer is the non-accelerated streaming baseline (full
	// fragment, no skipping).
	EngineSurfer
	// EngineSki is the JSONSki-analogue baseline (child and array-wildcard
	// selectors only; returns ErrUnsupportedQuery otherwise).
	EngineSki
	// EngineDOM parses the document into a tree and evaluates the query
	// recursively — the reference implementation. The only engine that
	// supports PathSemantics.
	EngineDOM
	// EngineStackless simulates the depth-register automata of §3.2 (no
	// stack at all); it supports only descendant-only label chains like
	// $..a..b and returns ErrUnsupportedQuery otherwise.
	EngineStackless
)

// String returns the engine name used in benchmark output.
func (k EngineKind) String() string {
	switch k {
	case EngineRsonpath:
		return "rsonpath"
	case EngineSurfer:
		return "surfer"
	case EngineSki:
		return "ski"
	case EngineDOM:
		return "dom"
	case EngineStackless:
		return "stackless"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// ErrUnsupportedQuery is returned when a query uses selectors the chosen
// engine cannot execute (EngineSki's fragment and EngineStackless's
// descendant-only chains).
var ErrUnsupportedQuery = ski.ErrUnsupported

// Optimizations toggles the accelerated engine's skipping techniques
// (§3.3 of the paper); all are enabled by default. Used by the ablation
// benchmarks; leave untouched otherwise.
type Optimizations struct {
	NoHeadSkip     bool // disable skipping to the first descendant label
	NoSkipChildren bool // disable fast-forwarding over rejected subtrees
	NoSkipSiblings bool // disable fast-forwarding after unitary matches
	NoSkipLeaves   bool // keep commas/colons always enabled
	// TailSkip enables the paper's §4.5 future-work classifier: in
	// non-initial descendant segments the engine fast-forwards to the next
	// occurrence of the sought label within the current element. Off by
	// default (the paper's configuration).
	TailSkip bool
}

// Option configures Compile.
type Option func(*config)

type config struct {
	kind      EngineKind
	opt       Optimizations
	semantics Semantics
	window    int // RunReader window size; 0 = DefaultStreamWindow

	// Resource limits (errors.go): 0 = default, negative = unlimited.
	maxDepth    int
	maxMatches  int
	maxDocBytes int

	// Supervision (supervisor.go): watchdog deadline and degradation
	// ladder.
	timeout  time.Duration
	fallback FallbackMode
}

// WithEngine selects the execution engine; EngineRsonpath is the default,
// so WithEngine(EngineRsonpath) changes nothing. Any other engine is a
// planner constraint (rule "forced-engine"): it runs every time, index or
// not, since only the accelerated engine can consume an IndexedDocument.
func WithEngine(kind EngineKind) Option {
	return func(c *config) { c.kind = kind }
}

// WithOptimizations overrides the accelerated engine's skipping toggles.
func WithOptimizations(o Optimizations) Option {
	return func(c *config) { c.opt = o }
}

// runner is the common surface of the three engines.
type runner interface {
	Run(data []byte, emit func(pos int)) error
}

// Query is a compiled JSONPath query, immutable and safe for concurrent
// use.
type Query struct {
	source string
	parsed *jsonpath.Query
	kind   EngineKind
	run    runner
	window int // RunReader window size; 0 = DefaultStreamWindow
	limits limits
	sup    supervision
	// oracle is the DOM reference evaluator the supervisor degrades to on
	// internal faults; nil when the query is already EngineDOM.
	oracle *domRunner
	// shape holds the query-shape facts the plan layer's rules consume
	// (planner_api.go).
	shape planner.Shape
}

// Compile parses and compiles a JSONPath expression.
func Compile(query string, opts ...Option) (*Query, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	parsed, err := jsonpath.Parse(query)
	if err != nil {
		return nil, err
	}
	if c.semantics == PathSemantics && c.kind != EngineDOM {
		return nil, errPathSemantics
	}
	lim := c.resolveLimits()
	q := &Query{source: query, parsed: parsed, kind: c.kind, window: c.window,
		limits: lim, sup: c.resolveSupervision(),
		shape: shapeOf(parsed, c.opt.NoHeadSkip)}
	if c.kind != EngineDOM {
		q.oracle = &domRunner{query: parsed, semantics: dom.NodeSemantics, maxDepth: lim.maxDepth}
	}
	switch c.kind {
	case EngineDOM:
		sem := dom.NodeSemantics
		if c.semantics == PathSemantics {
			sem = dom.PathSemantics
		}
		q.run = &domRunner{query: parsed, semantics: sem, maxDepth: lim.maxDepth}
	case EngineSki:
		// EngineSki is exempt from the depth limit: its recursion is bounded
		// by the query length and its fast-forwards use O(1) memory.
		q.run, err = ski.New(parsed)
	case EngineStackless:
		var sl *engine.Stackless
		sl, err = engine.NewStackless(parsed)
		if errors.Is(err, engine.ErrNotStackless) {
			err = ErrUnsupportedQuery
		}
		if err == nil {
			sl.LimitDepth(lim.maxDepth)
			q.run = sl
		}
	case EngineSurfer:
		var dfa *automaton.DFA
		dfa, err = automaton.Compile(parsed, automaton.Options{})
		if err == nil {
			sf := surfer.New(dfa)
			sf.LimitDepth(lim.maxDepth)
			q.run = sf
		}
	default:
		var dfa *automaton.DFA
		dfa, err = automaton.Compile(parsed, automaton.Options{})
		if err == nil {
			q.run = engine.New(dfa, engine.Options{
				DisableHeadSkip:     c.opt.NoHeadSkip,
				DisableSkipChildren: c.opt.NoSkipChildren,
				DisableSkipSiblings: c.opt.NoSkipSiblings,
				DisableSkipLeaves:   c.opt.NoSkipLeaves,
				EnableTailSkip:      c.opt.TailSkip,
				MaxDepth:            lim.maxDepth,
				MaxDocBytes:         lim.maxDocBytes,
			})
		}
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustCompile is Compile that panics on error, for fixed queries.
func MustCompile(query string, opts ...Option) *Query {
	q, err := Compile(query, opts...)
	if err != nil {
		panic(err)
	}
	return q
}

// String returns the canonical form of the query.
func (q *Query) String() string { return q.parsed.String() }

// Source returns the query text as passed to Compile.
func (q *Query) Source() string { return q.source }

// Engine returns the engine kind backing this query.
func (q *Query) Engine() EngineKind { return q.kind }

// Run streams the document once, calling emit with the byte offset of the
// first character of every matched value, in document order, on the
// configured engine (Explain reports the plan; DESIGN.md §13).
//
// Malformed input surfaces as *MalformedError, a configured limit being hit
// as *LimitError, and an internal fault as *InternalError (never a panic);
// see DESIGN.md §9 for the failure model.
func (q *Query) Run(data []byte, emit func(pos int)) error {
	if q.sup.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), q.sup.timeout)
		defer cancel()
		return q.runCtx(ctx, data, emit)
	}
	if err := q.limits.checkDocBytes(len(data)); err != nil {
		return err
	}
	return guardRun(q.kind.String(), func() error {
		return q.run.Run(data, q.limits.limitEmit(emit))
	})
}

// Count returns the number of matches in data.
func (q *Query) Count(data []byte) (int, error) {
	n := 0
	err := q.Run(data, func(int) { n++ })
	return n, err
}

// MatchOffsets returns the byte offsets of all matched values.
func (q *Query) MatchOffsets(data []byte) ([]int, error) {
	var out []int
	err := q.Run(data, func(pos int) { out = append(out, pos) })
	return out, err
}

// stopRun aborts a Query.Run from inside its emit callback; the panic is
// recovered by the caller that armed it. The engines keep no state across
// Run calls, so abandoning a run mid-flight is safe.
type stopRun struct{}

// MatchValues returns the raw bytes of every matched value. The returned
// slices alias data. On the first extraction failure the scan is abandoned:
// the values extracted so far are returned together with the extraction
// error (a truncated match means the document cannot be trusted beyond it,
// and scanning the remainder would be pure waste).
func (q *Query) MatchValues(data []byte) (out [][]byte, err error) {
	if err := q.limits.checkDocBytes(len(data)); err != nil {
		return nil, err
	}
	var extractErr error
	runErr := guardRun(q.kind.String(), func() error {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopRun); !ok {
					panic(r)
				}
			}
		}()
		return q.run.Run(data, q.limits.limitEmit(func(pos int) {
			v, err := ValueAt(data, pos)
			if err != nil {
				extractErr = err
				panic(stopRun{})
			}
			out = append(out, v)
		}))
	})
	if extractErr != nil {
		return out, extractErr
	}
	if runErr != nil {
		return nil, runErr
	}
	return out, nil
}

// CountReader streams the document from r and counts matches, with memory
// bounded by the configured stream window (see RunReader). EngineDOM, which
// cannot stream, falls back to buffering the whole document.
func (q *Query) CountReader(r io.Reader) (int, error) {
	n := 0
	if _, ok := q.run.(inputRunner); !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return 0, err
		}
		return q.Count(data)
	}
	err := q.RunReader(r, func(int) { n++ })
	return n, err
}

// errTruncated is returned by ValueAt on values that do not end within the
// buffer.
var errTruncated = errors.New("rsonpath: truncated value")

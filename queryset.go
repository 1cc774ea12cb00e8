package rsonpath

import (
	"context"
	"errors"
	"fmt"

	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/multiquery"
	"rsonpath/internal/planner"
)

// setRunner is the execution surface QuerySet needs from the one-pass
// driver; an interface so the fault-injection tests can interpose on it the
// way they do on Query.run.
type setRunner interface {
	Run(data []byte, emit func(query, pos int)) error
	RunInput(in input.Input, emit func(query, pos int)) error
	RunPlanes(in input.Input, planes *classifier.Planes, emit func(query, pos int)) error
	Len() int
}

// errSetEngine rejects QuerySet on engines other than the default: the
// one-pass driver is built on the accelerated engine's classification
// stream. Evaluate per-query with Compile for the baseline engines.
var errSetEngine = errors.New("rsonpath: QuerySet requires EngineRsonpath")

// QuerySet is a set of compiled JSONPath queries evaluated together in a
// single pass over each document: the quote/structural/depth classification
// stream — the dominant cost of a run — is computed once and shared by all
// queries, each of which keeps its own automaton state. For a service
// running many queries over the same document this replaces N classification
// passes with one; see DESIGN.md for the shared-skipping design and for when
// a loop of Query.Run is preferable.
//
// A QuerySet is immutable and safe for concurrent use.
type QuerySet struct {
	sources []string
	// parsed keeps the member queries' ASTs for the supervisor's per-query
	// DOM-oracle fallback (supervisor.go).
	parsed []*jsonpath.Query
	set    setRunner
	window int // RunReader window size; 0 = DefaultStreamWindow
	limits limits
	sup    supervision

	// shape is the union shape of the member queries. The shared pass
	// always runs the accelerated engine, so the set's plan is the
	// scan-vs-planes choice, never an engine choice.
	shape planner.Shape
}

// CompileSet parses and compiles a set of JSONPath expressions for one-pass
// evaluation. The only supported engine is EngineRsonpath (the default);
// path semantics is not supported. An empty set is valid and matches
// nothing.
func CompileSet(queries []string, opts ...Option) (*QuerySet, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.kind != EngineRsonpath {
		return nil, errSetEngine
	}
	if c.semantics == PathSemantics {
		return nil, errPathSemantics
	}
	sources := append([]string(nil), queries...)
	dfas := make([]*automaton.DFA, len(queries))
	parsedAll := make([]*jsonpath.Query, len(queries))
	for i, src := range queries {
		parsed, err := jsonpath.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", i, src, err)
		}
		parsedAll[i] = parsed
		dfas[i], err = automaton.Compile(parsed, automaton.Options{})
		if err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", i, src, err)
		}
	}
	lim := c.resolveLimits()
	set := multiquery.New(dfas)
	set.Limits(lim.maxDepth, lim.maxDocBytes)
	return &QuerySet{sources: sources, parsed: parsedAll, set: set, window: c.window,
		limits: lim, sup: c.resolveSupervision(),
		shape: setShape(parsedAll)}, nil
}

// setShape is the union shape of the member queries: the shared pass can
// head-skip only when every member starts with a descendant label, and a
// mixed set plans like its most general member.
func setShape(parsedAll []*jsonpath.Query) planner.Shape {
	sh := planner.Shape{LeadingDescendantLabel: len(parsedAll) > 0}
	for _, parsed := range parsedAll {
		m := shapeOf(parsed, false)
		sh.HasDescendant = sh.HasDescendant || m.HasDescendant
		sh.LeadingDescendantLabel = sh.LeadingDescendantLabel && m.LeadingDescendantLabel
	}
	return sh
}

// plan runs the decision rules for the set over the given stats. The set's
// engine is structurally pinned to the accelerated one-pass driver, so only
// the watchdog and the document stats bind.
func (s *QuerySet) plan(stats planner.DocStats) planner.Plan {
	return planner.Decide(s.shape, stats, planner.Constraints{WatchdogArmed: s.sup.timeout > 0})
}

// Explain returns the execution plan the set would follow for a run over a
// document with the given stats; see Query.Explain. The engine is always
// EngineRsonpath — the shared one-pass driver — so the plan varies only in
// the scan-vs-planes choice and the rule naming the scan's dominant
// mechanism.
func (s *QuerySet) Explain(stats DocStats) Plan {
	return publicPlan(s.plan(stats.internal()))
}

// MustCompileSet is CompileSet that panics on error, for fixed query sets.
func MustCompileSet(queries []string, opts ...Option) *QuerySet {
	s, err := CompileSet(queries, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of queries in the set.
func (s *QuerySet) Len() int { return s.set.Len() }

// Source returns the text of query i as passed to CompileSet.
func (s *QuerySet) Source(i int) string { return s.sources[i] }

// Run scans the document once, calling emit with the query index and the
// byte offset of the first character of every matched value. Matches arrive
// in document order; matches of different queries at the same offset arrive
// in query order. Empty and whitespace-only documents yield zero matches
// and a nil error.
//
// Malformed input surfaces as *MalformedError, a configured limit being hit
// as *LimitError, and an internal fault as *InternalError (never a panic).
func (s *QuerySet) Run(data []byte, emit func(query, pos int)) error {
	if s.sup.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), s.sup.timeout)
		defer cancel()
		return s.runCtx(ctx, data, emit)
	}
	if err := s.limits.checkDocBytes(len(data)); err != nil {
		return err
	}
	return guardRun("queryset", func() error {
		return s.set.Run(data, s.limits.limitEmit2(emit))
	})
}

// Counts returns the number of matches of each query, indexed like the
// queries passed to CompileSet.
func (s *QuerySet) Counts(data []byte) ([]int, error) {
	counts := make([]int, s.set.Len())
	err := s.Run(data, func(q, _ int) { counts[q]++ })
	if err != nil {
		return nil, err
	}
	return counts, nil
}

// MatchOffsets returns the byte offsets of every query's matched values,
// indexed like the queries passed to CompileSet.
func (s *QuerySet) MatchOffsets(data []byte) ([][]int, error) {
	out := make([][]int, s.set.Len())
	err := s.Run(data, func(q, pos int) { out[q] = append(out[q], pos) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

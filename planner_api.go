package rsonpath

import (
	"fmt"

	"rsonpath/internal/jsonpath"
	"rsonpath/internal/planner"
)

// This file is the public face of the execution-plan layer (DESIGN.md
// §13). A plan decides two things: whether the accelerated engine scans the
// raw bytes or serves classification from an IndexedDocument, and which
// engine WithEngine pinned. Cold runs never consult it — there is nothing
// to decide without an index — so Decide runs only in RunIndexed and in
// Explain. The decision rules live in internal/planner.

// IndexAmortizeRuns is the repeat-run count at which building a document
// mask index is predicted to have repaid its build (BENCH_swar.json); the
// planner advises StrategyIndexed at or above it.
const IndexAmortizeRuns = planner.IndexAmortizeRuns

// DocStats carries what the caller knows about the document (and the
// workload) at run time; the planner turns it into a strategy choice. The
// zero value means "nothing known" and always yields a safe plan.
type DocStats struct {
	// Bytes is the document size, 0 when unknown.
	Bytes int
	// Streaming reports the document arrives through a reader and is never
	// wholly in memory.
	Streaming bool
	// Indexed reports a prebuilt IndexedDocument for these bytes is in
	// hand (RunIndexed is available).
	Indexed bool
	// ExpectedRuns is the predicted total number of runs this document
	// will serve — repeat queries against the same bytes; 0 when unknown.
	// At IndexAmortizeRuns and above the planner advises building an
	// index.
	ExpectedRuns int
}

// Plan is one planning decision: the chosen strategy, the engine that
// executes it, the stable identifier of the rule that selected it, and a
// human-readable rationale. Strategy and Rule values are stable across
// releases; Rationale wording is documentation, not API.
type Plan struct {
	// Strategy is the stable strategy name: "scan", "indexed",
	// "stackless", "ski", "surfer", or "dom".
	Strategy string
	// Engine is the engine kind that executes the strategy.
	Engine EngineKind
	// Rule identifies the decision rule that fired, e.g. "forced-engine",
	// "indexed-available", "index-amortizes", "head-skip".
	Rule string
	// Rationale explains the decision in one sentence.
	Rationale string
}

// String renders the plan in the form the CLI's -explain flag prints.
func (p Plan) String() string {
	return fmt.Sprintf("strategy=%s engine=%s rule=%s: %s", p.Strategy, p.Engine, p.Rule, p.Rationale)
}

// Explain returns the execution plan the query would follow for a run over
// a document with the given stats — for observability, and for callers
// that orchestrate their own amortization: a plan with Strategy "indexed"
// while stats.Indexed is false is advice to build an IndexedDocument
// (Index) and switch to RunIndexed. The output is deterministic: the same
// query and stats always produce the same plan.
func (q *Query) Explain(stats DocStats) Plan {
	return publicPlan(q.plan(stats.internal()))
}

// internal converts the public stats to the planner's.
func (d DocStats) internal() planner.DocStats {
	return planner.DocStats{
		Bytes:        d.Bytes,
		Streaming:    d.Streaming,
		Indexed:      d.Indexed,
		ExpectedRuns: d.ExpectedRuns,
	}
}

// publicPlan converts a planner decision to the public Plan.
func publicPlan(p planner.Plan) Plan {
	return Plan{
		Strategy:  p.Strategy.String(),
		Engine:    strategyEngine(p.Strategy),
		Rule:      p.Rule,
		Rationale: p.Rationale,
	}
}

// strategyEngine maps a strategy to the engine kind that executes it.
func strategyEngine(s planner.Strategy) EngineKind {
	switch s {
	case planner.StrategyStackless:
		return EngineStackless
	case planner.StrategySki:
		return EngineSki
	case planner.StrategySurfer:
		return EngineSurfer
	case planner.StrategyDOM:
		return EngineDOM
	default:
		// scan and indexed are both the accelerated engine; indexed is the
		// same automaton fed from precomputed masks.
		return EngineRsonpath
	}
}

// kindStrategy maps a configured engine kind to the strategy it pins; the
// accelerated engine pins only the scan, which the rules may upgrade to the
// index.
func kindStrategy(kind EngineKind) planner.Strategy {
	switch kind {
	case EngineSurfer:
		return planner.StrategySurfer
	case EngineSki:
		return planner.StrategySki
	case EngineDOM:
		return planner.StrategyDOM
	case EngineStackless:
		return planner.StrategyStackless
	default:
		return planner.StrategyScan
	}
}

// shapeOf derives the planner's query-shape facts from the parsed query.
// With head-skip disabled a leading descendant label is just a descendant:
// the engine walks to it like any other, so the plan must not claim
// head-skip.
func shapeOf(parsed *jsonpath.Query, noHeadSkip bool) planner.Shape {
	sh := planner.Shape{HasDescendant: parsed.HasDescendant()}
	if len(parsed.Selectors) > 0 && !noHeadSkip {
		first := &parsed.Selectors[0]
		sh.LeadingDescendantLabel = first.Descendant && len(first.Labels) > 0
	}
	return sh
}

// plan runs the decision rules for this query over the given stats.
func (q *Query) plan(stats planner.DocStats) planner.Plan {
	return planner.Decide(q.shape, stats, planner.Constraints{
		Strategy:      kindStrategy(q.kind),
		WatchdogArmed: q.sup.timeout > 0,
	})
}

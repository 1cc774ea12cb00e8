package rsonpath

import "fmt"

// This file is the execution-plan layer (DESIGN.md §13). A plan decides two
// things: whether the accelerated engine scans the raw bytes or serves
// classification from an IndexedDocument, and which engine WithEngine
// pinned. It decides from three facts the code can observe, as simdjson
// does (Langdale & Lemire, PAPERS.md): the pinned engine, whether the query
// head-skips, and whether WithTimeout armed the watchdog. Cold runs never
// consult it — there is nothing to decide without an index — so decide
// runs only in the indexed entry points and in Explain.

// IndexAmortizeRuns is the repeat-run count at which building a document
// mask index is predicted to have repaid its build (BENCH_swar.json: at 8
// repeat queries the indexed path is already faster than cold runs with the
// build included); the plan advises the index at or above it.
const IndexAmortizeRuns = 8

// DocStats carries what the caller knows about the document (and the
// workload) at run time. The zero value means "nothing known" and always
// yields a safe plan.
type DocStats struct {
	// Bytes is the document size, 0 when unknown. No rule reads it: the
	// plan is the same for every size.
	Bytes int
	// Indexed reports a prebuilt IndexedDocument for these bytes is in
	// hand (RunIndexed is available).
	Indexed bool
	// ExpectedRuns is the predicted total number of runs this document
	// will serve — repeat queries against the same bytes; 0 when unknown.
	// At IndexAmortizeRuns and above the plan advises building an index.
	ExpectedRuns int
}

// Plan is one planning decision: the chosen strategy, the engine that
// executes it, the stable identifier of the rule that selected it, and a
// human-readable rationale. Strategy and Rule values are stable across
// releases; Rationale wording is documentation, not API.
type Plan struct {
	// Strategy is the stable strategy name: "scan", "indexed", or the
	// pinned engine's name ("stackless", "dom").
	Strategy string
	// Engine is the engine kind that executes the strategy.
	Engine EngineKind
	// Rule identifies the decision rule that fired: "forced-engine",
	// "indexed-available", "watchdog-streams", "index-amortizes",
	// "head-skip" or "no-index".
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
	return decide(q.kind, q.headSkip, q.sup.timeout > 0, stats)
}

// decide is the one planning decision behind Explain and every indexed
// entry point. Each branch is one rule; a plan that names no Engine runs
// EngineRsonpath, the zero EngineKind.
func decide(kind EngineKind, headSkip, watchdog bool, stats DocStats) Plan {
	switch {
	case kind != EngineRsonpath:
		// Only the accelerated engine can consume an index.
		return Plan{Strategy: kind.String(), Engine: kind, Rule: "forced-engine",
			Rationale: "engine forced by WithEngine"}
	case stats.Indexed && watchdog:
		return Plan{Strategy: "scan", Rule: "watchdog-streams",
			Rationale: "watchdog deadline needs the streaming path's cancellation points; the atomic plane-backed run is unavailable"}
	case stats.Indexed:
		return Plan{Strategy: "indexed", Rule: "indexed-available",
			Rationale: "classification served from the prebuilt document mask index"}
	case watchdog || stats.ExpectedRuns < IndexAmortizeRuns:
		return Plan{Strategy: "scan", Rule: "no-index",
			Rationale: "no index in hand and none advised: the accelerated engine scans the raw bytes"}
	case headSkip:
		// The leading label declines the advice: memmem reads the raw bytes
		// either way, so prebuilt planes never repay their build
		// (DESIGN.md §11).
		return Plan{Strategy: "scan", Rule: "head-skip",
			Rationale: "leading descendant label: skip straight to each occurrence of the sought label"}
	}
	return Plan{Strategy: "indexed", Rule: "index-amortizes",
		Rationale: fmt.Sprintf("%d expected runs over the same document repay the one-time index build (break-even ~%d)",
			stats.ExpectedRuns, IndexAmortizeRuns)}
}

// Package planner is the execution-plan layer: it turns the shape of a
// compiled query, the run-time statistics of the document at hand, and the
// configured engine into an ExecutionPlan — which execution strategy runs
// and why. A plan decides exactly two things: whether the accelerated
// engine scans the raw bytes or serves classification from a prebuilt
// document index, and which engine WithEngine pinned. Decide runs where
// that decision changes execution (RunIndexed, the daemon's indexed
// dispatch) or is reported (Explain); cold runs do not consult it
// (DESIGN.md §13).
//
// The planner follows simdjson's "pick the cheapest mechanism per stage"
// design (Langdale & Lemire, PAPERS.md) and, like simdjson, decides only
// from facts the code can observe. The rules and the measurements backing
// them:
//
//   - indexed: a document mask index serves classification — the dominant
//     cost of a run — from memory; warm runs are 3–5× faster than cold ones
//     and the build repays itself within ~IndexAmortizeRuns repeat queries
//     (BENCH_swar.json). Head-skip queries are excluded from the advice: a
//     sparse leading-label scan is dominated by memmem over raw bytes, which
//     an index cannot serve (DESIGN.md §11).
//   - scan: everything else runs the accelerated engine over the raw bytes.
//     Head-skip, skip-children and skip-siblings are mechanisms inside that
//     one scan (the paper's §3.3), so the plan has one scan strategy and its
//     rule names the dominant mechanism for the query shape: head-skip for
//     a leading descendant label, child-skipping for child/wildcard-only
//     queries, depth-stack otherwise.
//
// Decide is a pure function: the same (Shape, DocStats, Constraints)
// triple always produces the same Plan, which is what makes Explain output
// stable and the decision boundaries unit-testable.
package planner

import "fmt"

// Strategy is one execution mechanism the planner can report.
type Strategy int

const (
	// StrategyScan is the accelerated engine over the raw document bytes:
	// windowed classification, the depth-stack automaton and the full
	// skipping repertoire (head-skip, skip-children, skip-siblings).
	StrategyScan Strategy = iota
	// StrategyIndexed serves per-block classification from a prebuilt
	// document mask index (rsonpath.IndexedDocument) instead of classifying
	// the raw bytes.
	StrategyIndexed
	// StrategyStackless is the depth-register automaton of §3.2 for
	// descendant-only label chains (selected only when forced).
	StrategyStackless
	// StrategySki is the JSONSki-analogue baseline engine (restricted
	// wildcard semantics; selected only when forced).
	StrategySki
	// StrategySurfer is the non-accelerated streaming baseline (selected
	// only when forced).
	StrategySurfer
	// StrategyDOM parses the document into a tree and evaluates
	// recursively — the reference oracle, and the only strategy that
	// supports path semantics (selected only when forced).
	StrategyDOM
)

// String returns the stable strategy name used in Explain output, the
// daemon's /metrics and the CLI's -explain flag.
func (s Strategy) String() string {
	switch s {
	case StrategyScan:
		return "scan"
	case StrategyIndexed:
		return "indexed"
	case StrategyStackless:
		return "stackless"
	case StrategySki:
		return "ski"
	case StrategySurfer:
		return "surfer"
	case StrategyDOM:
		return "dom"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NumStrategies is the number of distinct strategies, sized for fixed
// per-strategy counter arrays.
const NumStrategies = 6

// Strategies lists every strategy in declaration order, for metrics
// renderers that emit one counter per kind.
var Strategies = [NumStrategies]Strategy{
	StrategyScan, StrategyIndexed, StrategyStackless,
	StrategySki, StrategySurfer, StrategyDOM,
}

// IndexAmortizeRuns is the number of repeat runs over the same document at
// which building a mask index is predicted to have repaid its build cost.
// BENCH_swar.json: at n=8 repeat queries the indexed path is already ~2.3×
// faster than cold runs with the build included.
const IndexAmortizeRuns = 8

// Shape describes the compiled query in the terms the decision rules need.
// It is derived once at compile time from the parsed selectors.
type Shape struct {
	// HasDescendant reports any ..-selector.
	HasDescendant bool
	// LeadingDescendantLabel reports that the engine head-skips: the first
	// selector is a descendant with at least one concrete label, and the
	// caller has not disabled head-skip.
	LeadingDescendantLabel bool
}

// DocStats carries what is known about the document (and the workload)
// at run time. The zero value means "nothing known" and always yields a
// safe plan.
type DocStats struct {
	// Bytes is the document size, 0 when unknown (streaming input).
	Bytes int
	// Streaming reports that the document arrives through a reader and is
	// never wholly in memory.
	Streaming bool
	// Indexed reports that a prebuilt IndexedDocument for these bytes is in
	// hand.
	Indexed bool
	// ExpectedRuns is the caller's prediction of how many runs this
	// document will serve in total (repeat queries, cache residency); 0
	// when unknown.
	ExpectedRuns int
}

// Constraints is the part of the compile options that binds the planner.
// The zero value is the default accelerated engine with no watchdog.
type Constraints struct {
	// Strategy is the strategy of the configured engine: StrategyScan for
	// the accelerated engine, which the rules may upgrade to the index; a
	// baseline engine's own strategy otherwise, which the plan keeps.
	Strategy Strategy
	// WatchdogArmed reports a WithTimeout deadline: the plane-backed
	// indexed path is atomic and has no cancellation points, so it is
	// unavailable.
	WatchdogArmed bool
}

// Plan is the decision: a strategy, the stable identifier of the rule that
// selected it, and a human-readable rationale.
type Plan struct {
	Strategy  Strategy
	Rule      string
	Rationale string
}

// Decide maps (query shape × document stats × constraints) to a plan. It
// is pure and allocation-free apart from the rationale string.
func Decide(sh Shape, d DocStats, c Constraints) Plan {
	if c.Strategy != StrategyScan {
		return Plan{Strategy: c.Strategy, Rule: "forced-engine",
			Rationale: "engine forced by WithEngine"}
	}
	if d.Indexed {
		if c.WatchdogArmed {
			return Plan{Strategy: StrategyScan, Rule: "watchdog-streams",
				Rationale: "watchdog deadline needs the streaming path's cancellation points; the atomic plane-backed run is unavailable"}
		}
		return Plan{Strategy: StrategyIndexed, Rule: "indexed-available",
			Rationale: "classification served from the prebuilt document mask index"}
	}
	if !d.Streaming && !c.WatchdogArmed && d.ExpectedRuns >= IndexAmortizeRuns &&
		!sh.LeadingDescendantLabel {
		// Head-skip excluded: memmem reads raw document bytes either way, so
		// prebuilt planes never repay their build for a leading-label query
		// (DESIGN.md §11).
		return Plan{Strategy: StrategyIndexed, Rule: "index-amortizes",
			Rationale: fmt.Sprintf("%d expected runs over the same document repay the one-time index build (break-even ~%d)",
				d.ExpectedRuns, IndexAmortizeRuns)}
	}
	p := Plan{Strategy: StrategyScan}
	switch {
	case sh.LeadingDescendantLabel:
		p.Rule, p.Rationale = "head-skip",
			"leading descendant label: skip straight to each occurrence of the sought label"
	case !sh.HasDescendant:
		p.Rule, p.Rationale = "child-skipping",
			"child/wildcard-only query: ski-style subtree and sibling fast-forwarding"
	default:
		p.Rule, p.Rationale = "depth-stack",
			"general query: depth-stack simulation with the full skipping repertoire"
	}
	return p
}

// PredictRuns estimates the total future runs a document will serve from
// the number of times it has already been seen: repeat sightings are the
// strongest predictor of more to come (Zipfian request mixes), and a
// document seen twice is predicted to reach the index break-even point.
// The serving layer feeds this into DocStats.ExpectedRuns.
func PredictRuns(priorRuns int) int {
	if priorRuns <= 0 {
		return 0
	}
	return priorRuns * IndexAmortizeRuns / 2
}

// ShouldIndex reports whether building a mask index for the document is
// predicted to amortize — the promotion decision of the daemon's document
// cache.
func ShouldIndex(d DocStats) bool {
	return !d.Streaming && !d.Indexed && d.ExpectedRuns >= IndexAmortizeRuns
}

// Package rsonpath is a streaming JSONPath engine with full support for
// descendant and wildcard selectors, reproducing the system of
// "Supporting Descendants in SIMD-Accelerated JSONPath" (ASPLOS 2023) in
// pure Go.
//
// The engine evaluates the JSONPath fragment
//
//	e ::= $ | e.l | e.* | e..l | e..* | e[n] | e[a:b] | e['l'] | e[*]
//	      | e['a','b',n,a:b]
//
// under node semantics — a query returns the set of matched nodes in
// document order — in a single pass over the raw document bytes, without
// building a DOM. Queries are compiled to minimal deterministic automata
// simulated with a sparse depth-stack, and the byte stream is classified in
// 64-byte blocks by a batched pipeline (AVX2 where the CPU has it,
// word-parallel SWAR otherwise) that fast-forwards
// through irrelevant input: leaves, rejected subtrees, exhausted siblings,
// and — for queries beginning with a descendant selector — everything up to
// the next occurrence of the leading label.
//
// # Quick start
//
//	q, err := rsonpath.Compile("$..user.name")
//	if err != nil { ... }
//	values, err := q.MatchValues(data)
//
// Compiled queries are immutable and safe for concurrent use.
//
// # Engines
//
// Besides the default accelerated engine, four alternative engines are
// available via WithEngine: EngineSurfer, a byte-at-a-time streaming
// baseline with no skipping (JsonSurfer's role in the paper's evaluation);
// EngineSki, a reimplementation of JSONSki's restricted fragment (child and
// array-wildcard selectors only); EngineDOM, the tree-building reference
// implementation, which also supports the legacy path semantics via
// WithSemantics; and EngineStackless, the depth-register automaton of the
// paper's §3.2 for descendant-only label chains.
//
// # Execution plans
//
// Query.Explain reports how a run would execute (DESIGN.md §13): the
// accelerated engine's scan, whose rule names its dominant skipping
// mechanism (head-skip, child-skipping or depth-stack); the indexed path
// when a document classified once by Index is in hand (RunIndexed); or the
// engine pinned with WithEngine. Head-skip, skip-children and
// skip-siblings are mechanisms inside the one scan, not separate
// strategies.
//
// Query composition (Pipeline), newline-delimited streaming (RunLines),
// value extraction (ValueAt), and string decoding (DecodeString) round out
// the library surface.
package rsonpath

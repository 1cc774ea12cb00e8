package rsonpath

import (
	"context"

	"rsonpath/internal/classifier"
	"rsonpath/internal/engine"
	"rsonpath/internal/input"
	"rsonpath/internal/planner"
	"rsonpath/internal/supervisor"
)

// IndexedDocument is a document classified once and queried many times: the
// whole-document mask planes (quote, in-string, structural, and bracket
// masks, one 64-bit word per 64-byte block) built by one batched sweep,
// plus the padded tail block. RunIndexed evaluations serve every per-block
// mask from the index instead of classifying the document window by window
// as a cold run does, so the per-query cost drops to automaton simulation
// and the few scalar verifications.
//
// An IndexedDocument is immutable and safe for concurrent use; any number of
// RunIndexed calls may share it, from any number of goroutines. It aliases
// the data slice it was built from: the caller must not mutate those bytes
// while the index is in use (mutating them invalidates the index — the
// planes would no longer describe the bytes, and runs over the stale index
// return arbitrary offsets). There is no partial invalidation; to query
// changed bytes, build a new index.
//
// The index costs 6 words (48 bytes) per 64-byte block of input, 75% of the
// document's size, plus the bracket-excess summary that lets depth skips
// pass whole blocks unread: 2 bytes per block and 8 per 64 blocks, another
// ~3.3%. With the summary the index is ~78% of the document.
type IndexedDocument struct {
	data   []byte
	in     *input.BytesInput
	planes *classifier.Planes
}

// Index classifies data once with the batched kernels and returns the
// reusable mask index. Two whole-document screens run on the fresh planes
// and reject input that cannot be well-formed JSON — a document ending
// inside a string, or one whose brackets (outside strings) do not balance —
// as *MalformedError before any query runs. The screens are necessary, not
// sufficient: input that passes can still fail a later RunIndexed with the
// engine's own malformed-input detection.
//
// The returned index aliases data; see IndexedDocument for the lifetime
// contract.
func Index(data []byte) (*IndexedDocument, error) {
	planes := classifier.BuildPlanes(data)
	if planes.EndInString {
		return nil, &MalformedError{Offset: len(data), Kind: "unterminated string"}
	}
	if opens, closes := planes.BracketBalance(); opens != closes {
		return nil, &MalformedError{Offset: len(data), Kind: "unbalanced brackets"}
	}
	return &IndexedDocument{data: data, in: input.NewBytes(data), planes: planes}, nil
}

// Bytes returns the document bytes the index was built from (aliased, not
// copied).
func (d *IndexedDocument) Bytes() []byte { return d.data }

// Len returns the document length in bytes.
func (d *IndexedDocument) Len() int { return len(d.data) }

// Footprint returns the resident memory cost of the index in bytes: the
// document it aliases plus the six mask planes (one 64-bit word each per
// 64-byte block) and the bracket-excess summary, ~78% of the document on
// top of it. Cache layers that budget by bytes (rsonpathd's document cache)
// charge entries by this number.
func (d *IndexedDocument) Footprint() int {
	return len(d.data) + d.planes.Footprint()
}

// RunIndexed is Run over a pre-indexed document: matches are identical to
// Run(doc.Bytes(), emit) on well-formed input, but the classification work
// is served from the index. The speedup accrues to EngineRsonpath (the
// default); the baseline engines have no classification stream to feed, so
// for them RunIndexed falls back to a plain Run over the document bytes.
// A query compiled WithTimeout takes the same fallback — the watchdog's
// cancellation points live on the streaming path, which cannot consume
// planes.
//
// On malformed input that slipped past Index's screens the run's
// best-effort error positions may differ from Run's; see DESIGN.md §11.
func (q *Query) RunIndexed(doc *IndexedDocument, emit func(pos int)) error {
	e, ok := q.run.(*engine.Engine)
	pl := q.plan(planner.DocStats{Bytes: len(doc.data), Indexed: ok})
	if !ok || pl.Strategy != planner.StrategyIndexed {
		// The plan diverted to a scan: no plane surface (baseline engine), or
		// the watchdog needs the streaming path's cancellation points.
		return q.Run(doc.data, emit)
	}
	if err := q.limits.checkDocBytes(len(doc.data)); err != nil {
		return err
	}
	return guardRun(q.kind.String(), func() error {
		return e.RunPlanes(doc.in, doc.planes, q.limits.limitEmit(emit))
	})
}

// RunIndexedSupervised is RunIndexed under the execution supervisor: the
// plane-backed run observes ctx at entry (a plane run is atomic — like
// EngineDOM, it cannot be interrupted mid-document), and an internal fault
// degrades to the DOM oracle over the indexed bytes. Matches are delivered
// only once the run settles; the Outcome reports which path produced them.
// This is the serving path for a hot document cache: the index keeps the
// classification amortized while degradation stays observable per request.
func (q *Query) RunIndexedSupervised(ctx context.Context, doc *IndexedDocument, emit func(pos int)) (Outcome, error) {
	e, ok := q.run.(*engine.Engine)
	if !ok {
		// No plane surface to serve from; the supervised in-memory run is the
		// same evaluation the unsupervised fallback in RunIndexed would do.
		return q.RunSupervised(ctx, doc.data, emit)
	}
	var buf []int
	primary := supervisor.Attempt{Engine: q.kind.String(), Atomic: true, Run: func(context.Context) error {
		buf = buf[:0]
		if err := q.limits.checkDocBytes(len(doc.data)); err != nil {
			return err
		}
		return guardRun(q.kind.String(), func() error {
			return e.RunPlanes(doc.in, doc.planes, q.limits.limitEmit(func(pos int) { buf = append(buf, pos) }))
		})
	}}
	oc, err := q.sup.run(ctx, primary, q.oracleAttempt(doc.data, &buf, 0))
	return deliver(oc, err, buf, emit)
}

// CountIndexed returns the number of matches in the indexed document.
func (q *Query) CountIndexed(doc *IndexedDocument) (int, error) {
	n := 0
	err := q.RunIndexed(doc, func(int) { n++ })
	return n, err
}

// MatchOffsetsIndexed returns the byte offsets of all matched values in the
// indexed document.
func (q *Query) MatchOffsetsIndexed(doc *IndexedDocument) ([]int, error) {
	var out []int
	err := q.RunIndexed(doc, func(pos int) { out = append(out, pos) })
	return out, err
}

// RunIndexed is QuerySet.Run over a pre-indexed document: the set's one
// shared classification pass is served from the index, with the same match
// order and error contract as Run on well-formed input. A set compiled
// WithTimeout falls back to a plain Run (see Query.RunIndexed).
func (s *QuerySet) RunIndexed(doc *IndexedDocument, emit func(query, pos int)) error {
	if pl := s.plan(planner.DocStats{Bytes: len(doc.data), Indexed: true}); pl.Strategy != planner.StrategyIndexed {
		// The watchdog needs the streaming path's cancellation points; the
		// atomic plane-backed run is unavailable.
		return s.Run(doc.data, emit)
	}
	if err := s.limits.checkDocBytes(len(doc.data)); err != nil {
		return err
	}
	return guardRun("queryset", func() error {
		return s.set.RunPlanes(doc.in, doc.planes, s.limits.limitEmit2(emit))
	})
}

// CountsIndexed returns the number of matches of each query in the indexed
// document, indexed like the queries passed to CompileSet.
func (s *QuerySet) CountsIndexed(doc *IndexedDocument) ([]int, error) {
	counts := make([]int, s.set.Len())
	err := s.RunIndexed(doc, func(q, _ int) { counts[q]++ })
	if err != nil {
		return nil, err
	}
	return counts, nil
}

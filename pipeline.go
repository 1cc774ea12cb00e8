package rsonpath

import "sort"

// Pipeline evaluates queries in succession, feeding the output of each
// stage to the next — the compositionality the paper lists as an open
// challenge in §6. This reference implementation re-runs later stages on
// each matched subdocument; results keep node semantics (a set of nodes of
// the original document, in document order) by deduplicating offsets across
// stage outputs. Each stage runs on its own query's configured engine.
type Pipeline struct {
	stages []*Query
}

// NewPipeline composes stages left to right. At least one stage is
// required; single-stage pipelines behave exactly like the query itself.
func NewPipeline(stages ...*Query) *Pipeline {
	return &Pipeline{stages: append([]*Query(nil), stages...)}
}

// run is the shared stage driver. When vals is non-nil, the final stage
// extracts each matched value in place — from the enclosing subdocument the
// stage is already scanning — so MatchValues never re-parses offsets the
// stage run just validated. Extracted slices alias data.
func (p *Pipeline) run(data []byte, vals map[int][]byte) ([]int, error) {
	if len(p.stages) == 0 {
		return nil, nil
	}
	pos := firstNonWS(data)
	if pos == len(data) {
		return nil, nil // empty or whitespace-only document: nothing to match
	}
	current := []int{pos}
	for si, q := range p.stages {
		capture := vals != nil && si == len(p.stages)-1
		var next []int
		for _, base := range current {
			v, err := ValueAt(data, base)
			if err != nil {
				return nil, err
			}
			var extractErr error
			if err := q.Run(v, func(pos int) {
				off := base + pos
				next = append(next, off)
				if !capture || extractErr != nil {
					return
				}
				if _, seen := vals[off]; seen {
					return
				}
				val, verr := ValueAt(v, pos)
				if verr != nil {
					extractErr = verr
					return
				}
				vals[off] = val
			}); err != nil {
				return nil, err
			}
			if extractErr != nil {
				return nil, extractErr
			}
		}
		sort.Ints(next)
		next = dedupeSorted(next)
		current = next
	}
	return current, nil
}

// MatchOffsets returns the byte offsets (into the original document) of the
// values matched by the final stage, deduplicated and in document order.
func (p *Pipeline) MatchOffsets(data []byte) ([]int, error) {
	return p.run(data, nil)
}

// Count returns the number of final-stage matches.
func (p *Pipeline) Count(data []byte) (int, error) {
	offs, err := p.MatchOffsets(data)
	return len(offs), err
}

// MatchValues returns the raw bytes of the final-stage matches. The
// returned slices alias data. Values are extracted once, during the final
// stage's own scan; offsets are never re-parsed from the document root.
func (p *Pipeline) MatchValues(data []byte) ([][]byte, error) {
	vals := make(map[int][]byte)
	offs, err := p.run(data, vals)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(offs))
	for i, o := range offs {
		out[i] = vals[o]
	}
	return out, nil
}

func dedupeSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func firstNonWS(data []byte) int {
	i := 0
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

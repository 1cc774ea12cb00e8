// Package multiquery evaluates a set of compiled query automata over one
// document in a single pass: one shared classification stream (quote,
// structural, and depth classifiers — the cost that dominates the paper's
// profile) drives N independent automaton simulations, each with its own
// depth-stack and state, emitting (queryIndex, offset) matches in document
// order.
//
// Sharing changes the skipping calculus of §3.3. A fast-forward is sound for
// the set only when it is sound for every member, so every decision is taken
// on the intersection of what the live automata allow:
//
//   - skipping children  — a subtree is fast-forwarded over only when every
//     automaton enters it in a rejecting state;
//   - skipping siblings  — the remaining siblings are skipped only when
//     every automaton just matched a unitary child;
//   - skipping leaves    — commas and colons are toggled on when any
//     automaton wants them (the union: enabling a symbol is always sound,
//     disabling requires unanimity).
//
// Head-skip and tail-skip (seeking labels with memmem) are not shared in
// this version: with several sought labels the seek target is the minimum
// over per-label occurrences, which requires a multi-pattern seeker; the
// driver degrades to the streaming pass instead of risking a missed match.
//
// The document's structural facts — depth, the element kind per depth, the
// entry index per open array — are properties of the input, not of any
// automaton, so they are tracked once and shared by all steppers.
package multiquery

import (
	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/depthstack"
	"rsonpath/internal/engine"
	"rsonpath/internal/errs"
	"rsonpath/internal/input"
)

// Set is a compiled set of query automata evaluated in one shared pass. It
// is immutable once runs have started and safe for concurrent use: each Run
// gets its own state. Limits may be configured between New and the first
// Run.
type Set struct {
	dfas        []*automaton.DFA
	needsIndex  bool
	maxDepth    int
	maxDocBytes int
}

// Limits configures the shared pass's resource limits: maxDepth caps the
// walked document nesting, maxDocBytes the document size known up front.
// Either 0 or negative disables that check. Call before the first Run.
func (s *Set) Limits(maxDepth, maxDocBytes int) {
	s.maxDepth = maxDepth
	s.maxDocBytes = maxDocBytes
}

// New builds a set over compiled automata. The slice is retained.
func New(dfas []*automaton.DFA) *Set {
	s := &Set{dfas: dfas}
	for _, d := range dfas {
		for i := range d.States {
			if d.States[i].NeedsIndexInArray {
				s.needsIndex = true
			}
		}
	}
	return s
}

// Len returns the number of queries in the set.
func (s *Set) Len() int { return len(s.dfas) }

// Run scans data once, invoking emit with the query index and the byte
// offset of each matched value's first character. Matches are reported in
// document order; matches of different queries at the same offset are
// reported in query order. Empty and whitespace-only documents yield zero
// matches and a nil error (a batch of queries over no document matches
// nothing), unlike the single-query engine, which reports them as malformed.
func (s *Set) Run(data []byte, emit func(query, pos int)) error {
	return s.RunInput(input.NewBytes(data), emit)
}

// RunInput is Run over any input source. Over a window-bounded input the
// shared pass's memory stays bounded by the window; a document feature
// larger than the window surfaces as *input.Error.
func (s *Set) RunInput(in input.Input, emit func(query, pos int)) error {
	return input.Guard(func() error { return s.runInput(in, nil, emit) })
}

// RunPlanes is RunInput over a document whose mask planes were precomputed
// with classifier.BuildPlanes: the one shared classification pass the set
// already amortizes over its members becomes a set of plane lookups, so
// repeated evaluations over the same document re-derive nothing. in must
// present exactly the bytes the planes were built from.
func (s *Set) RunPlanes(in input.Input, planes *classifier.Planes, emit func(query, pos int)) error {
	return input.Guard(func() error { return s.runInput(in, planes, emit) })
}

func (s *Set) runInput(in input.Input, planes *classifier.Planes, emit func(query, pos int)) error {
	if len(s.dfas) == 0 {
		return nil
	}
	if max := s.maxDocBytes; max > 0 {
		if n := in.Len(); n >= 0 && n > max {
			return errs.DocBytesLimit(max, max)
		}
	}
	rootPos := engine.FirstNonWS(in, 0)
	c, ok := in.ByteAt(rootPos)
	if !ok {
		return nil
	}
	r := &run{
		set:      s,
		in:       in,
		emit:     emit,
		steppers: make([]engine.Stepper, len(s.dfas)),
		targets:  make([]automaton.StateID, len(s.dfas)),
	}
	if c != '{' && c != '[' {
		// Atomic root: nothing below it, but the lone scalar must still be
		// a complete value with nothing after it.
		end, bad := input.AtomSpan(in, rootPos)
		if bad != "" {
			return r.errMalformed(end, bad)
		}
		if p, found := input.TrailingContent(in, end); found {
			return r.errMalformed(p, "trailing content")
		}
		for i, d := range s.dfas {
			r.steppers[i].Init(d)
			if r.steppers[i].InitialAccepting() {
				emit(i, rootPos)
			}
		}
		return nil
	}
	for i, d := range s.dfas {
		r.steppers[i].Init(d)
		if r.steppers[i].InitialAccepting() {
			emit(i, rootPos)
		}
	}
	if planes != nil {
		r.stream = classifier.NewStreamPlanes(in, planes)
	} else {
		r.stream = classifier.NewStreamInput(in)
	}
	defer r.stream.Release()
	r.iter = classifier.NewStructural(r.stream, rootPos+1)
	return r.scan(rootPos, c)
}

// run is the per-document execution state: the shared stream plus the
// document-structural trackers, and one stepper per query.
type run struct {
	set    *Set
	in     input.Input
	emit   func(query, pos int)
	stream *classifier.Stream
	iter   classifier.Structural

	steppers []engine.Stepper
	targets  []automaton.StateID // scratch: per-query target of one event

	depth   int
	kinds   depthstack.KindMap  // element kind per depth: true = object
	indices depthstack.IntStack // entry index per open array (index queries)
}

func (r *run) errMalformed(pos int, why string) error {
	return &errs.Malformed{Sentinel: engine.ErrMalformed, Offset: pos, Kind: why}
}

// toggle adjusts the comma/colon symbols to the union of what the steppers'
// current states want, within the element kind at the current depth.
func (r *run) toggle() {
	isObj := r.kinds.Get(r.depth)
	colons, commas := false, false
	for i := range r.steppers {
		wc, wm := r.steppers[i].Wants()
		colons = colons || wc
		commas = commas || wm
	}
	r.iter.SetColons(isObj && colons)
	r.iter.SetCommas(!isObj && commas)
}

// currentIndex returns the entry index of the array being scanned (0 when
// index tracking is off).
func (r *run) currentIndex() int {
	if !r.set.needsIndex || r.indices.Len() == 0 {
		return 0
	}
	return r.indices.Top()
}

// scan is the shared-stream analogue of the single-query engine's
// run.subtree (§3.4), generalized from one automaton to the set: structural
// facts are maintained once, automaton facts per stepper, and every
// fast-forward fires on the intersection of the steppers' verdicts.
func (r *run) scan(openPos int, openCh byte) error {
	r.depth = 1
	r.kinds.Set(1, openCh == '{')
	if openCh == '[' && r.set.needsIndex {
		r.indices.Push(0)
	}
	r.toggle()
	if openCh == '[' {
		r.tryMatchFirstItem(openPos)
	}

	for {
		pos, ch, ok := r.iter.Next()
		if !ok {
			end := r.in.Len()
			if end < 0 {
				end = 0
			}
			return r.errMalformed(end, "unterminated document")
		}
		switch ch {
		case '{', '[':
			label, hasLabel, lok := engine.LabelBefore(r.in, pos)
			if !lok {
				return r.errMalformed(pos, "cannot locate label")
			}
			idx := r.currentIndex()
			allReject := true
			for i := range r.steppers {
				t := r.steppers[i].EventTarget(label, hasLabel, idx)
				r.targets[i] = t
				if !r.steppers[i].Rejecting(t) {
					allReject = false
				}
			}
			if allReject {
				// Every query rejects the subtree: the shared cursor may
				// fast-forward over it.
				end, ok := classifier.SkipToClose(r.stream, pos+1, ch)
				if !ok {
					return r.errMalformed(pos, "unterminated value")
				}
				r.iter.Reset(end + 1)
				continue
			}
			// Some query keeps the subtree alive: every stepper enters it
			// (rejecting ones walk it in their trash state, exactly like the
			// single engine with child skipping disabled).
			r.kinds.Set(r.depth+1, ch == '{')
			if ch == '[' && r.set.needsIndex {
				r.indices.Push(0)
			}
			for i := range r.steppers {
				if r.steppers[i].EnterOpen(r.targets[i], r.depth) {
					r.emit(i, pos)
				}
			}
			r.depth++
			if max := r.set.maxDepth; max > 0 && r.depth > max {
				return errs.DepthLimit(max, pos)
			}
			r.toggle()
			if ch == '[' {
				r.tryMatchFirstItem(pos)
			}

		case '}', ']':
			if r.kinds.Get(r.depth) != (ch == '}') {
				return r.errMalformed(pos, "mismatched closer")
			}
			r.depth--
			if ch == ']' && r.set.needsIndex && r.indices.Len() > 0 {
				// The guard protects against malformed input closing an
				// array that was never opened.
				r.indices.Pop()
			}
			if r.depth == 0 {
				if p, found := input.TrailingContent(r.in, pos+1); found {
					return r.errMalformed(p, "trailing content")
				}
				return nil
			}
			allUnitary := true
			for i := range r.steppers {
				if !r.steppers[i].CloseRestore(r.depth) {
					allUnitary = false
				}
			}
			if allUnitary {
				// Every query just matched its unitary child: no further
				// sibling can match anywhere, so fast-forward to the
				// parent's closer and let the main loop process it (unless
				// the next event already is a closing character).
				if _, nch, ok := r.iter.Peek(); ok && nch != '}' && nch != ']' {
					end, ok := classifier.SkipToClose(r.stream, pos+1, '{')
					if !ok {
						return r.errMalformed(pos, "unterminated object")
					}
					r.iter.Reset(end)
				}
				continue
			}
			r.toggle()

		case ':':
			if _, nch, ok := r.iter.Peek(); ok && (nch == '{' || nch == '[') {
				continue // composite value: handled by its Opening event
			}
			label, hasLabel, lok := engine.LabelBefore(r.in, pos+1)
			if !lok || !hasLabel {
				return r.errMalformed(pos, "colon without label")
			}
			// Resolve every stepper's transition before touching the input
			// again: the label slice aliases the input's window, and the
			// value scan below may slide it.
			for i := range r.steppers {
				r.targets[i] = r.steppers[i].EventTarget(label, true, 0)
			}
			vs := -1
			allSkip := true
			for i := range r.steppers {
				t := r.targets[i]
				if r.steppers[i].Accepting(t) {
					if vs < 0 {
						vs = engine.FirstNonWS(r.in, pos+1)
						if !engine.PlausibleValueStart(r.in, vs) {
							return r.errMalformed(pos, "missing value")
						}
					}
					r.emit(i, vs)
				}
				if !r.steppers[i].Unitary() || r.steppers[i].Rejecting(t) {
					allSkip = false
				}
			}
			if allSkip {
				// Every query's unitary label matched a leaf: skip the
				// remaining siblings, leaving the parent's closer as the
				// next event (unless it already is).
				if _, nch, ok := r.iter.Peek(); ok && nch != '}' && nch != ']' {
					end, ok := classifier.SkipToClose(r.stream, pos+1, '{')
					if !ok {
						return r.errMalformed(pos, "unterminated object")
					}
					r.iter.Reset(end)
				}
			}

		case ',':
			if r.set.needsIndex && !r.kinds.Get(r.depth) && r.indices.Len() > 0 {
				r.indices.Inc()
			}
			if _, nch, ok := r.iter.Peek(); ok && (nch == '{' || nch == '[') {
				continue // composite entry: handled by its Opening event
			}
			idx := r.currentIndex()
			vs := -1
			for i := range r.steppers {
				t := r.steppers[i].EventTarget(nil, false, idx)
				if !r.steppers[i].Accepting(t) {
					continue
				}
				if vs == -1 {
					vs = engine.FirstNonWS(r.in, pos+1)
					if !engine.PlausibleValueStart(r.in, vs) {
						vs = -2 // trailing comma or truncation: nothing to report
					}
				}
				if vs >= 0 {
					r.emit(i, vs)
				}
			}
		}
	}
}

// tryMatchFirstItem handles the corner case of §3.4 for the set: the first
// entry of an array is preceded by neither comma nor colon, so a leaf first
// entry must be matched for every query whose entry transition accepts.
func (r *run) tryMatchFirstItem(openPos int) {
	vs := -1
	for i := range r.steppers {
		t := r.steppers[i].EventTarget(nil, false, 0)
		if !r.steppers[i].Accepting(t) {
			continue
		}
		if vs == -1 {
			if _, nch, ok := r.iter.Peek(); !ok || nch == '{' || nch == '[' {
				vs = -2 // composite first entry (or malformed): Opening handles it
			} else {
				vs = engine.FirstNonWS(r.in, openPos+1)
				if !engine.PlausibleValueStart(r.in, vs) {
					vs = -2 // empty array or malformed input
				}
			}
		}
		if vs >= 0 {
			r.emit(i, vs)
		}
	}
}

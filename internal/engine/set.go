package engine

import (
	"sync"

	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/depthstack"
	"rsonpath/internal/input"
)

// Set evaluates a set of compiled query automata over one document in a
// single pass (DESIGN.md §7): one shared classification stream drives N
// automaton simulations, each with its own state and depth-stack, emitting
// (query index, offset) matches in document order. The document's
// structural facts — depth, the element kind per depth, the entry index per
// open array — belong to the input, not to any automaton, so the run tracks
// them once, in the document side of a run (docRun) that the single-query
// loop uses too, with its key lookup, checks and skip actions.
//
// Sharing changes the skipping calculus of §3.3. A fast-forward is sound for
// the set only when it is sound for every member, so every decision is taken
// on what all live automata allow:
//
//   - skipping children  — a subtree is fast-forwarded over only when every
//     automaton enters it in a rejecting state;
//   - skipping siblings  — the remaining siblings are skipped only when
//     every automaton just matched a unitary child;
//   - skipping leaves    — commas and colons are toggled on when any
//     automaton wants them (the union: enabling a symbol is always sound,
//     disabling requires unanimity).
//
// Head-skip and tail-skip are not shared: with several sought labels the
// seek target is the minimum over per-label occurrences, which needs a
// multi-pattern seeker, so a set always streams from the root. Nor is the
// array-tail skip.
//
// A Set is immutable and safe for concurrent use: each run gets its own
// state.
type Set struct {
	dfas        []*automaton.DFA
	indexed     []bool // per member: needsIndex(dfas[i])
	needsIndex  bool   // some member counts array entries
	maxDepth    int    // Options.MaxDepth for the shared pass
	maxDocBytes int    // Options.MaxDocBytes for the shared pass
}

// NewSet builds a set over compiled automata; the slice is retained.
// maxDepth and maxDocBytes limit the shared pass as Options.MaxDepth and
// Options.MaxDocBytes limit a single query's run.
func NewSet(dfas []*automaton.DFA, maxDepth, maxDocBytes int) *Set {
	s := &Set{dfas: dfas, indexed: make([]bool, len(dfas)), maxDepth: maxDepth, maxDocBytes: maxDocBytes}
	for i, d := range dfas {
		s.indexed[i] = needsIndex(d)
		s.needsIndex = s.needsIndex || s.indexed[i]
	}
	return s
}

// needsIndex reports whether dfa has index transitions, requiring
// array-entry counting.
func needsIndex(dfa *automaton.DFA) bool {
	for i := range dfa.States {
		if dfa.States[i].NeedsIndexInArray {
			return true
		}
	}
	return false
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
	return s.runInput(input.NewBytes(data), nil, emit)
}

// RunInput is Run over any input source. Over a window-bounded input the
// shared pass's memory stays bounded by the window; a document feature
// larger than the window surfaces as *input.Error.
func (s *Set) RunInput(in input.Input, emit func(query, pos int)) error {
	return s.runInput(in, nil, emit)
}

// RunPlanes is RunInput over a document whose mask planes were precomputed
// with classifier.BuildPlanes: the one shared classification pass becomes a
// set of plane lookups. in must present exactly the bytes the planes were
// built from.
func (s *Set) RunPlanes(in input.Input, planes *classifier.Planes, emit func(query, pos int)) error {
	return s.runInput(in, planes, emit)
}

func (s *Set) runInput(in input.Input, planes *classifier.Planes, emit func(query, pos int)) error {
	if len(s.dfas) == 0 {
		return nil
	}
	return input.Guard(func() error {
		if err := checkDocBytes(in, s.maxDocBytes); err != nil {
			return err
		}
		r := setRunPool.Get().(*setRun)
		defer r.release()
		r.docRun = newDocRun(in, s.maxDepth, s.needsIndex)
		r.emit = emit
		n := len(s.dfas)
		if cap(r.steppers) < n {
			r.steppers = make([]stepper, n)
			r.targets = make([]automaton.StateID, n)
		}
		r.steppers, r.targets = r.steppers[:n], r.targets[:n]
		return r.document(s, planes)
	})
}

// setRunPool recycles per-run set state: the document side of the run and
// one stepper per member, each carrying a depth-stack's inline frames.
var setRunPool = sync.Pool{New: func() any { return new(setRun) }}

// setRun is the per-document state of a set run: the document side shared
// with the single-query loop (the stream, the cursor and the structural
// trackers) plus one stepper per member.
type setRun struct {
	docRun
	emit     func(query, pos int)
	steppers []stepper
	targets  []automaton.StateID // scratch: per-member target of one event
}

// release returns the run to the pool, dropping the caller's input and
// callback but keeping the steppers' storage.
func (r *setRun) release() {
	if r.stream != nil {
		r.stream.Release()
	}
	r.docRun = docRun{}
	r.emit = nil
	setRunPool.Put(r)
}

// document dispatches on the root value. An empty or whitespace-only
// document yields nothing.
func (r *setRun) document(s *Set, planes *classifier.Planes) error {
	rootPos := firstNonWS(r.in, 0)
	c, ok := r.in.ByteAt(rootPos)
	if !ok {
		return nil
	}
	atomic := c != '{' && c != '['
	if atomic {
		if err := r.checkAtom(rootPos); err != nil {
			return err
		}
	}
	for i, d := range s.dfas {
		r.steppers[i].reset(d, s.indexed[i])
		if d.States[d.Initial].Accepting {
			r.emit(i, rootPos)
		}
	}
	if atomic {
		return nil
	}
	if planes != nil {
		r.stream = classifier.NewStreamPlanes(r.in, planes)
	} else {
		r.stream = classifier.NewStreamInput(r.in)
	}
	r.iter = classifier.NewStructural(r.stream, rootPos+1)
	return r.scan(rootPos, c)
}

// toggleUnion adjusts the comma/colon symbols to the union of what the
// steppers' current states want, within the element kind at depth.
func (r *setRun) toggleUnion(depth int) {
	isObj := r.kinds.Get(depth)
	colons, commas := false, false
	for i := range r.steppers {
		wc, wm := r.steppers[i].wants()
		colons = colons || wc
		commas = commas || wm
	}
	r.iter.SetColons(isObj && colons)
	r.iter.SetCommas(!isObj && commas)
}

// scan is run.subtree (§3.4) generalized from one automaton to the set:
// structural facts are maintained once, automaton facts per stepper, and
// every fast-forward fires on the intersection of the steppers' verdicts.
func (r *setRun) scan(openPos int, openCh byte) error {
	r.kinds.Reset()
	r.indices.Reset()
	needsIndex := r.needsIndex
	depth := 1
	r.kinds.Set(depth, openCh == '{')
	if openCh == '[' && needsIndex {
		r.indices.Push(0)
	}
	r.toggleUnion(depth)
	if openCh == '[' {
		r.emitLeafEntry(openPos, 0, true)
	}

	it := &r.iter
	for {
		if !it.Ready() {
			return r.errMalformed(r.endPos(), "unterminated document")
		}
		pos, ch := it.Take()
		switch ch {
		case '{', '[':
			label, hasLabel, lok := r.labelBefore(pos)
			if !lok {
				return r.errMalformed(pos, "cannot locate label")
			}
			idx := r.currentIndex()
			allReject := true
			for i := range r.steppers {
				t := r.steppers[i].eventTarget(label, hasLabel, idx)
				r.targets[i] = t
				if !r.steppers[i].rejecting(t) {
					allReject = false
				}
			}
			if allReject {
				// Every query rejects the subtree: the shared cursor may
				// fast-forward over it.
				if err := r.skipValue(pos, ch); err != nil {
					return err
				}
				continue
			}
			// Some query keeps the subtree alive: every stepper enters it
			// (rejecting ones walk it in their trash state, exactly like the
			// single engine with child skipping disabled).
			r.kinds.Set(depth+1, ch == '{')
			if ch == '[' && needsIndex {
				r.indices.Push(0)
			}
			for i := range r.steppers {
				if r.steppers[i].enterOpen(r.targets[i], depth) {
					r.emit(i, pos)
				}
			}
			depth++
			if err := r.checkDepth(depth, pos); err != nil {
				return err
			}
			r.toggleUnion(depth)
			if ch == '[' {
				r.emitLeafEntry(pos, 0, true)
			}

		case '}', ']':
			if r.kinds.Get(depth) != (ch == '}') {
				return r.errMalformed(pos, "mismatched closer")
			}
			depth--
			if ch == ']' && needsIndex && r.indices.Len() > 0 {
				// The guard protects against malformed input closing an
				// array that was never opened.
				r.indices.Pop()
			}
			if depth == 0 {
				return r.checkTrailing(pos + 1)
			}
			allUnitary := true
			for i := range r.steppers {
				if !r.steppers[i].closeRestore(depth) {
					allUnitary = false
				}
			}
			if allUnitary {
				// Every query just matched its unitary child: no further
				// sibling can match anywhere.
				if err := r.skipSiblings(pos); err != nil {
					return err
				}
				continue
			}
			r.toggleUnion(depth)

		case ':':
			if it.Ready() {
				if _, nch := it.Look(); nch == '{' || nch == '[' {
					continue // composite value: handled by its Opening event
				}
			}
			label, lok := r.keyBefore(pos)
			if !lok {
				return r.errMalformed(pos, "colon without label")
			}
			// Resolve every stepper's transition before touching the input
			// again: the label slice aliases the input's window, and the
			// value scan below may slide it.
			for i := range r.steppers {
				r.targets[i] = r.steppers[i].eventTarget(label, true, 0)
			}
			vs := -1
			allSkip := true
			for i := range r.steppers {
				t := r.targets[i]
				if r.steppers[i].accepting(t) {
					if vs < 0 {
						var ok bool
						if vs, ok = valueAfter(r.in, pos); !ok {
							return r.errMalformed(pos, "missing value")
						}
					}
					r.emit(i, vs)
				}
				if !r.steppers[i].unitary() || r.steppers[i].rejecting(t) {
					allSkip = false
				}
			}
			if allSkip {
				// Every query's unitary label matched a leaf: skip the
				// remaining siblings.
				if err := r.skipSiblings(pos); err != nil {
					return err
				}
			}

		case ',':
			if needsIndex && !r.kinds.Get(depth) && r.indices.Len() > 0 {
				r.indices.Inc()
			}
			if it.Ready() {
				if _, nch := it.Look(); nch == '{' || nch == '[' {
					continue // composite entry: handled by its Opening event
				}
			}
			r.emitLeafEntry(pos, r.currentIndex(), false)
		}
	}
}

// emitLeafEntry reports, for every query whose array-entry transition at
// idx accepts, the leaf value after the comma or opening bracket at pos —
// unless no value starts there (a trailing comma, an empty array or
// truncation), which reports nothing. first marks an array's first entry,
// which §3.4's corner case matches here: it is preceded by neither comma
// nor colon, and when it is composite its Opening event handles it.
func (r *setRun) emitLeafEntry(pos, idx int, first bool) {
	vs := -1
	for i := range r.steppers {
		t := r.steppers[i].eventTarget(nil, false, idx)
		if !r.steppers[i].accepting(t) {
			continue
		}
		if vs < 0 {
			if first {
				if _, nch, ok := r.iter.Peek(); !ok || nch == '{' || nch == '[' {
					return
				}
			}
			var ok bool
			if vs, ok = valueAfter(r.in, pos); !ok {
				return
			}
		}
		r.emit(i, vs)
	}
}

// stepper is one member automaton's simulation within a set run: the
// current DFA state plus the sparse depth-stack of §3.2, advanced one
// structural event at a time. The event protocol mirrors run.subtree:
//
//   - an opening character: eventTarget to find the entered state (the set
//     decides collectively whether to skip the subtree), then enterOpen to
//     commit;
//   - a closing character: closeRestore with the post-decrement depth;
//   - a colon or comma whose value is a leaf: eventTarget again — the state
//     itself does not change on leaves, the set only emits on acceptance.
type stepper struct {
	dfa        *automaton.DFA
	needsIndex bool
	state      automaton.StateID
	stack      depthstack.Stack
}

// reset prepares the stepper to scan a document from dfa's initial state;
// needsIndex is needsIndex(dfa).
func (s *stepper) reset(dfa *automaton.DFA, needsIndex bool) {
	s.dfa = dfa
	s.needsIndex = needsIndex
	s.state = dfa.Initial
	s.stack.Reset()
}

// eventTarget returns the state reached by a child carrying the given label
// (hasLabel true for object entries) or, for array entries, the given index.
// It does not change the stepper's state: opening events commit with
// enterOpen, and leaf events never change state (§3.4 — only openings push).
func (s *stepper) eventTarget(label []byte, hasLabel bool, idx int) automaton.StateID {
	if hasLabel {
		return s.dfa.Transition(s.state, label)
	}
	if s.needsIndex {
		return s.dfa.TransitionIndex(s.state, idx)
	}
	return s.dfa.TransitionFallback(s.state)
}

// rejecting reports whether t is a rejecting (trash-trapped) state.
func (s *stepper) rejecting(t automaton.StateID) bool { return s.dfa.States[t].Rejecting }

// accepting reports whether t is an accepting state.
func (s *stepper) accepting(t automaton.StateID) bool { return s.dfa.States[t].Accepting }

// unitary reports whether the current state is unitary (one concrete-label
// transition, rejecting fallback) — the precondition for sibling skipping.
func (s *stepper) unitary() bool { return s.dfa.States[s.state].Unitary }

// enterOpen commits an opening event: target is the state returned by
// eventTarget and depth the depth of the parent (pre-increment). A frame is
// pushed only when the state changes (the sparse depth-stack invariant).
// It reports whether the entered value itself matches.
func (s *stepper) enterOpen(target automaton.StateID, depth int) (accepting bool) {
	if target != s.state {
		s.stack.Push(int(s.state), depth)
		s.state = target
	}
	return s.dfa.States[target].Accepting
}

// closeRestore commits a closing event at the given (post-decrement) depth,
// popping the depth-stack when the closed element had changed the state. It
// reports whether a matched unitary child just closed — the condition under
// which the single-query engine skips the remaining siblings; the set skips
// only when every stepper reports true.
func (s *stepper) closeRestore(depth int) (unitaryMatched bool) {
	f, ok := s.stack.Top()
	if !ok || f.Depth != depth {
		return false
	}
	// Whether the child we just closed matched its entering transition:
	// children entered in the trash state (because another automaton in the
	// set kept the region alive) must not trigger sibling skipping.
	childMatched := !s.dfa.States[s.state].Rejecting
	s.stack.Pop()
	s.state = automaton.StateID(f.State)
	return childMatched && s.dfa.States[s.state].Unitary
}

// wants reports which leaf events the current state needs: colons (some
// object child can be accepted in one step) and commas (some array entry can
// be accepted, or entries must be counted for index transitions). The set
// enables a symbol when any stepper wants it (§3.4's toggle, with the union
// over the set).
func (s *stepper) wants() (colons, commas bool) {
	st := &s.dfa.States[s.state]
	return st.CanAcceptInObject, st.CanAcceptInArray || st.NeedsIndexInArray
}

// Package engine implements the paper's main query-execution algorithm
// (§3.2–§3.4): simulation of the compiled query automaton over the streamed
// document using a sparse depth-stack, fed by the batched classification
// pipeline, with all four skipping techniques:
//
//   - skipping leaves     — commas/colons toggled off in internal states;
//   - skipping children   — fast-forward over subtrees entered through
//     transitions into the rejecting state;
//   - skipping siblings   — fast-forward to the enclosing closer once a
//     unitary state's single label has been matched, or once an array's
//     entry counter passes the last index its state selects;
//   - skipping to a label — the head-skip outer loop for queries whose
//     initial state is waiting (queries that begin with a descendant).
//
// Documented deviations from the paper's pseudocode are listed in DESIGN.md:
// an explicit element-kind bitstack drives comma/colon toggling, sibling
// skips fire only when the unitary label actually matched, index and slice
// selectors get a sibling skip of their own, and the first token of a
// (sub)document is entered without a transition.
//
// The engine scans rather than validates: on well-formed JSON its output
// equals the DOM oracle's; on malformed input it reports ErrMalformed when
// the structure cannot be balanced but otherwise makes no promises.
package engine

import (
	"errors"
	"sync"

	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/depthstack"
	"rsonpath/internal/errs"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
)

// ErrMalformed is returned when the input cannot be a well-formed JSON
// document (premature end of input, unbalanced brackets, missing labels).
var ErrMalformed = errors.New("engine: malformed JSON input")

// Options toggles the engine's optimizations, primarily for the ablation
// study (DESIGN.md experiment index). The zero value is the paper's
// configuration with everything enabled.
type Options struct {
	// DisableHeadSkip turns off memmem-style skipping to the first label
	// of queries beginning with a descendant selector (§3.4).
	DisableHeadSkip bool
	// DisableSkipChildren turns off fast-forwarding over rejected subtrees.
	DisableSkipChildren bool
	// DisableSkipSiblings turns off fast-forwarding after unitary matches
	// and past an array's last selected index.
	DisableSkipSiblings bool
	// DisableSkipLeaves keeps commas and colons enabled at all times
	// instead of toggling them by state.
	DisableSkipLeaves bool
	// EnableTailSkip turns on the §4.5 future-work classifier: in waiting
	// states (non-initial descendant segments ..l), the engine fast-forwards
	// to the next occurrence of l within the current element instead of
	// stepping through events. Off by default to keep the paper's exact
	// configuration; ignored for queries with index selectors.
	EnableTailSkip bool
	// MaxDepth aborts the run with a typed *errs.Limit when the nesting of
	// the walked portion of the document exceeds it. Skipped subtrees do not
	// count: their nesting costs the engine no memory, which is what the
	// limit bounds. 0 or negative disables the check.
	MaxDepth int
	// MaxDocBytes aborts the run with a typed *errs.Limit when the document
	// is known to be larger. For in-memory inputs the length is checked up
	// front; window-bounded inputs enforce it at refill granularity through
	// BufferedInput.LimitDocBytes.
	MaxDocBytes int
}

// Engine executes one compiled query over any number of documents. It is
// safe for concurrent use: each Run gets its own state.
type Engine struct {
	dfa         *automaton.DFA
	opts        Options
	needsIndex  bool
	tailSkip    bool
	headLabel   []byte // non-nil when head-skip applies
	headPattern []byte // the label in its quoted spelling, for the seeker
}

// New builds an engine for a compiled automaton.
func New(dfa *automaton.DFA, opts Options) *Engine {
	e := &Engine{dfa: dfa, opts: opts}
	for s := range dfa.States {
		if dfa.States[s].NeedsIndexInArray {
			e.needsIndex = true
		}
	}
	e.tailSkip = opts.EnableTailSkip && !e.needsIndex
	init := &dfa.States[dfa.Initial]
	if init.Waiting && !opts.DisableHeadSkip {
		// The quoted seek pattern is built once at automaton compile time
		// and shared by every engine over the same DFA.
		e.headLabel = init.Labels[0].Label
		e.headPattern = init.Labels[0].Pattern
	}
	return e
}

// CompileQuery parses and compiles a query and wraps it in an engine.
func CompileQuery(query string, opts Options) (*Engine, error) {
	q, err := jsonpath.Parse(query)
	if err != nil {
		return nil, err
	}
	dfa, err := automaton.Compile(q, automaton.Options{})
	if err != nil {
		return nil, err
	}
	return New(dfa, opts), nil
}

// Automaton returns the engine's compiled automaton.
func (e *Engine) Automaton() *automaton.DFA { return e.dfa }

// Count runs the query and returns the number of matches.
func (e *Engine) Count(data []byte) (int, error) {
	n := 0
	err := e.Run(data, func(int) { n++ })
	return n, err
}

// Matches runs the query and returns the byte offset of the first character
// of every matched value, in document order.
func (e *Engine) Matches(data []byte) ([]int, error) {
	var out []int
	err := e.Run(data, func(pos int) { out = append(out, pos) })
	return out, err
}

// Run streams an in-memory document once, invoking emit with the byte
// offset of each matched value's first character, in document order.
func (e *Engine) Run(data []byte, emit func(pos int)) error {
	return e.RunInput(input.NewBytes(data), emit)
}

// RunInput is Run over any input source. Over a window-bounded input the
// engine's memory stays bounded by the window; a document feature larger
// than the window (a key, a whitespace run) surfaces as *input.Error.
func (e *Engine) RunInput(in input.Input, emit func(pos int)) error {
	return e.runInput(in, nil, emit)
}

// RunPlanes is RunInput over a document whose mask planes were precomputed
// with classifier.BuildPlanes: the engine layer above the classifier
// boundary is unchanged, but the stream's classification window is the
// whole document, so no block is classified during the run and stream
// repositioning never needs quote-state reconstruction. in must present
// exactly the bytes the planes were built from.
func (e *Engine) RunPlanes(in input.Input, planes *classifier.Planes, emit func(pos int)) error {
	return e.runInput(in, planes, emit)
}

func (e *Engine) runInput(in input.Input, planes *classifier.Planes, emit func(pos int)) error {
	return input.Guard(func() error {
		if max := e.opts.MaxDocBytes; max > 0 {
			if n := in.Len(); n >= 0 && n > max {
				return errs.DocBytesLimit(max, max)
			}
		}
		r := runPool.Get().(*run)
		defer func() {
			if r.stream != nil {
				r.stream.Release()
			}
			*r = run{} // drop the caller's input and callback
			runPool.Put(r)
		}()
		*r = run{e: e, dfa: e.dfa, in: in, emit: emit}
		if planes != nil {
			r.stream = classifier.NewStreamPlanes(in, planes)
		} else {
			r.stream = classifier.NewStreamInput(in)
		}
		r.iter = classifier.NewStructural(r.stream, 0)
		return r.document()
	})
}

// runPool recycles per-run state: a run carries the depth-stack's inline
// frames (a few KiB), which would otherwise become garbage on every run.
var runPool = sync.Pool{New: func() any { return new(run) }}

// run is the per-document execution state.
type run struct {
	e      *Engine
	dfa    *automaton.DFA
	in     input.Input
	stream *classifier.Stream
	iter   *classifier.Structural
	emit   func(int)

	stack   depthstack.Stack    // (state, depth) frames — the depth-stack
	kinds   depthstack.KindMap  // element kind per depth: true = object
	indices depthstack.IntStack // entry index per open array (index queries)

	tailEnd int // subtree end position recorded by tailStep
}

func (r *run) errMalformed(pos int, why string) error {
	return &errs.Malformed{Sentinel: ErrMalformed, Offset: pos, Kind: why}
}

// checkDepth enforces Options.MaxDepth at the points where the walked
// nesting grows (and with it the engine's kind map and depth-stack).
func (r *run) checkDepth(depth, pos int) error {
	if max := r.e.opts.MaxDepth; max > 0 && depth > max {
		return errs.DepthLimit(max, pos)
	}
	return nil
}

// endPos is the document length for end-of-input diagnostics; by the time
// the end has been hit, every input knows its length.
func (r *run) endPos() int {
	if n := r.in.Len(); n >= 0 {
		return n
	}
	return 0
}

// document dispatches on the root value and the head-skip eligibility.
func (r *run) document() error {
	rootPos := FirstNonWS(r.in, 0)
	c, ok := r.in.ByteAt(rootPos)
	if !ok {
		return r.errMalformed(0, "empty input")
	}
	init := r.dfa.Initial
	if c != '{' && c != '[' {
		// Atomic root: validate the lone scalar lexically and reject any
		// trailing content before reporting a match. No key can exist
		// outside an object, so head-skip queries cannot match either way.
		end, bad := input.AtomSpan(r.in, rootPos)
		if bad != "" {
			return r.errMalformed(end, bad)
		}
		if p, found := input.TrailingContent(r.in, end); found {
			return r.errMalformed(p, "trailing content")
		}
		if r.dfa.States[init].Accepting {
			r.emit(rootPos)
		}
		return nil
	}
	if r.dfa.States[init].Accepting {
		r.emit(rootPos)
	}
	if r.e.headLabel != nil {
		return r.headSkipLoop(rootPos, c)
	}
	r.iter.Reset(rootPos + 1)
	end, err := r.subtree(init, rootPos, c)
	if err != nil {
		return err
	}
	if p, found := input.TrailingContent(r.in, end+1); found {
		return r.errMalformed(p, "trailing content")
	}
	return nil
}

// headSkipLoop implements skipping to a label (§3.4): find each occurrence
// of the head label with the memmem seeker, take the transition, and run the
// ordinary algorithm inside the associated value. rootPos/rootCh locate the
// document's composite root for the best-effort end-of-input validation.
func (r *run) headSkipLoop(rootPos int, rootCh byte) error {
	label := r.e.headLabel
	target := r.dfa.Transition(r.dfa.Initial, label)
	accepting := r.dfa.States[target].Accepting
	from := 0
	for {
		_, valueAt, ok := classifier.SeekLabelPattern(r.stream, from, label, r.e.headPattern)
		if !ok {
			return r.finishHeadSkip(rootPos, rootCh)
		}
		if accepting {
			r.emit(valueAt)
		}
		c, _ := r.in.ByteAt(valueAt)
		if c != '{' && c != '[' {
			// Leaf value: resume seeking after it (the seeker requires a
			// resumption point outside any string).
			from = LeafEnd(r.in, valueAt)
			continue
		}
		if r.dfa.States[target].Rejecting {
			// Nothing can match below; skip the whole value.
			end, ok := classifier.SkipToClose(r.stream, valueAt+1, c)
			if !ok {
				return r.errMalformed(valueAt, "unterminated value")
			}
			from = end + 1
			continue
		}
		r.iter.Reset(valueAt + 1)
		end, err := r.subtree(target, valueAt, c)
		if err != nil {
			return err
		}
		from = end + 1
	}
}

// finishHeadSkip performs the best-effort end-of-input validation of a
// head-skip run. The seeker never classifies the regions it jumps over, so
// fully balance-checking them would cost exactly the pass the optimization
// saves; instead two cheap checks reject the common corruption classes:
// the seeker's own quote parity catches documents ending inside a string,
// and the last non-whitespace byte must be the root's matching closer
// (catching plain truncation and trailing garbage). Nesting imbalance
// hidden strictly inside an unsought region can still slip through —
// documented as best-effort in DESIGN.md §9.
func (r *run) finishHeadSkip(rootPos int, rootCh byte) error {
	if r.stream.SeekEndedInString() {
		return r.errMalformed(r.endPos(), "unterminated string")
	}
	closer := byte('}')
	if rootCh == '[' {
		closer = ']'
	}
	last, ok := LastNonWS(r.in)
	if !ok || last <= rootPos {
		return r.errMalformed(r.endPos(), "unterminated document")
	}
	if b, _ := r.in.ByteAt(last); b != closer {
		return r.errMalformed(last, "unterminated document")
	}
	return nil
}

// arrayEntryTarget returns the state reached by an array entry at index idx.
func (r *run) arrayEntryTarget(state automaton.StateID, idx int) automaton.StateID {
	if r.e.needsIndex {
		return r.dfa.TransitionIndex(state, idx)
	}
	return r.dfa.TransitionFallback(state)
}

// toggle adjusts the comma/colon symbols to the current state and the kind
// of the element whose interior is at the given depth (§3.4's toggle()).
func (r *run) toggle(state automaton.StateID, depth int) {
	st := &r.dfa.States[state]
	isObj := r.kinds.Get(depth)
	always := r.e.opts.DisableSkipLeaves
	r.iter.SetColons(isObj && (st.CanAcceptInObject || always))
	r.iter.SetCommas(!isObj && (st.CanAcceptInArray || st.NeedsIndexInArray || always))
}

// subtree runs the main algorithm (§3.4) over one composite value whose
// opening character at openPos has already been located; state is the
// automaton state valid inside it (the opening itself triggers no
// transition). It returns the position of the matching closing character.
func (r *run) subtree(state automaton.StateID, openPos int, openCh byte) (endPos int, err error) {
	r.stack.Reset()
	r.kinds.Reset()
	r.indices.Reset()

	depth := 1
	r.kinds.Set(depth, openCh == '{')
	if openCh == '[' && r.e.needsIndex {
		r.indices.Push(0)
	}
	r.toggle(state, depth)
	if openCh == '[' {
		r.tryMatchFirstItem(state, openPos)
	}

	for {
		if r.e.tailSkip && r.dfa.States[state].Waiting {
			var done bool
			var err error
			state, depth, done, err = r.tailStep(state, depth)
			if err != nil {
				return 0, err
			}
			if done {
				// depth hit zero: tailStep recorded the end position.
				return r.tailEnd, nil
			}
			continue
		}
		pos, ch, ok := r.iter.Next()
		if !ok {
			return 0, r.errMalformed(r.endPos(), "unterminated document")
		}
		switch ch {
		case '{', '[':
			label, hasLabel, lok := LabelBefore(r.in, pos)
			if !lok {
				return 0, r.errMalformed(pos, "cannot locate label")
			}
			var target automaton.StateID
			if hasLabel {
				target = r.dfa.Transition(state, label)
			} else {
				target = r.arrayEntryTarget(state, r.currentIndex())
			}
			if r.dfa.States[target].Rejecting && !r.e.opts.DisableSkipChildren {
				end, ok := classifier.SkipToClose(r.stream, pos+1, ch)
				if !ok {
					return 0, r.errMalformed(pos, "unterminated value")
				}
				r.iter.Reset(end + 1)
				continue
			}
			if target != state {
				r.stack.Push(int(state), depth)
				state = target
			}
			depth++
			if err := r.checkDepth(depth, pos); err != nil {
				return 0, err
			}
			r.kinds.Set(depth, ch == '{')
			if ch == '[' && r.e.needsIndex {
				r.indices.Push(0)
			}
			if r.dfa.States[state].Accepting {
				r.emit(pos)
			}
			r.toggle(state, depth)
			if ch == '[' {
				r.tryMatchFirstItem(state, pos)
			}

		case '}', ']':
			if r.kinds.Get(depth) != (ch == '}') {
				return 0, r.errMalformed(pos, "mismatched closer")
			}
			depth--
			if ch == ']' && r.e.needsIndex && r.indices.Len() > 0 {
				// The guard protects against malformed input closing an
				// array that was never opened.
				r.indices.Pop()
			}
			if depth == 0 {
				return pos, nil
			}
			if f, ok := r.stack.Top(); ok && f.Depth == depth {
				// Whether the child we just closed matched its entering
				// transition: with skipping disabled, rejected children are
				// walked in the trash state, and closing one must not
				// trigger the sibling skip below.
				childMatched := !r.dfa.States[state].Rejecting
				r.stack.Pop()
				state = automaton.StateID(f.State)
				if childMatched && r.dfa.States[state].Unitary && !r.e.opts.DisableSkipSiblings {
					// The matched unitary child just closed: no further
					// sibling can match, so fast-forward to the parent's
					// closer and let the main loop process it. When the
					// next event is already a closing character it must be
					// that closer (no deeper one can precede an opening),
					// so the fast-forward would be pure overhead.
					if _, nch, ok := r.iter.Peek(); ok && nch != '}' && nch != ']' {
						end, ok := classifier.SkipToClose(r.stream, pos+1, '{')
						if !ok {
							return 0, r.errMalformed(pos, "unterminated object")
						}
						r.iter.Reset(end)
					}
					continue
				}
			}
			r.toggle(state, depth)

		case ':':
			if _, nch, ok := r.iter.Peek(); ok && (nch == '{' || nch == '[') {
				continue // composite value: handled by its Opening event
			}
			label, hasLabel, lok := LabelBefore(r.in, pos+1)
			if !lok || !hasLabel {
				return 0, r.errMalformed(pos, "colon without label")
			}
			target := r.dfa.Transition(state, label)
			if r.dfa.States[target].Accepting {
				vs := FirstNonWS(r.in, pos+1)
				if !PlausibleValueStart(r.in, vs) {
					return 0, r.errMalformed(pos, "missing value")
				}
				r.emit(vs)
			}
			if r.dfa.States[state].Unitary && !r.dfa.States[target].Rejecting &&
				!r.e.opts.DisableSkipSiblings {
				// The unitary label matched a leaf: skip the remaining
				// siblings, leaving the parent's closer as the next event
				// (unless it already is — see the Closing case).
				if _, nch, ok := r.iter.Peek(); ok && nch != '}' && nch != ']' {
					end, ok := classifier.SkipToClose(r.stream, pos+1, '{')
					if !ok {
						return 0, r.errMalformed(pos, "unterminated object")
					}
					r.iter.Reset(end)
				}
			}

		case ',':
			if r.e.needsIndex && !r.kinds.Get(depth) && r.indices.Len() > 0 {
				r.indices.Inc()
				if from := r.dfa.RejectFrom(state); from >= 0 && r.currentIndex() >= from &&
					!r.e.opts.DisableSkipSiblings {
					// The last selected index has passed: no later entry
					// can match, so fast-forward to the array's closer and
					// let the main loop process it.
					end, ok := classifier.SkipToClose(r.stream, pos+1, '[')
					if !ok {
						return 0, r.errMalformed(pos, "unterminated array")
					}
					r.iter.Reset(end)
					continue
				}
			}
			if _, nch, ok := r.iter.Peek(); ok && (nch == '{' || nch == '[') {
				continue // composite entry: handled by its Opening event
			}
			target := r.arrayEntryTarget(state, r.currentIndex())
			if r.dfa.States[target].Accepting {
				vs := FirstNonWS(r.in, pos+1)
				if !PlausibleValueStart(r.in, vs) {
					continue // trailing comma or truncation: nothing to report
				}
				r.emit(vs)
			}
		}
	}
}

// tailStep is the §4.5 extension: from a waiting state, fast-forward to
// the next occurrence of the state's label within the current element, or
// to the element's boundary, whichever comes first. It mirrors the main
// loop's Opening and Closing handling for the event it lands on. done is
// true when the subtree's own closer was consumed (depth reached zero);
// the end position is left in r.tailEnd.
func (r *run) tailStep(state automaton.StateID, depth int) (newState automaton.StateID, newDepth int, done bool, err error) {
	st := &r.dfa.States[state]
	label := st.Labels[0].Label
	boundary := 0
	if f, ok := r.stack.Top(); ok {
		boundary = f.Depth
	}
	ev := classifier.SeekLabelWithin(r.stream, r.iter.Position(), label, depth-boundary)
	switch ev.Kind {
	case classifier.TailKey:
		target := st.Labels[0].Target
		atDepth := depth + ev.DepthDelta
		c, _ := r.in.ByteAt(ev.ValueAt)
		if c != '{' && c != '[' {
			// Leaf value: report if it matches and keep seeking after it.
			if r.dfa.States[target].Accepting {
				r.emit(ev.ValueAt)
			}
			r.iter.Reset(LeafEnd(r.in, ev.ValueAt))
			return state, atDepth, false, nil
		}
		if r.dfa.States[target].Rejecting {
			// Cannot happen for the supported grammar (the labelled
			// transition of a waiting state always progresses), but stay
			// defensive: skip the subtree.
			end, ok := classifier.SkipToClose(r.stream, ev.ValueAt+1, c)
			if !ok {
				return state, depth, false, r.errMalformed(ev.ValueAt, "unterminated value")
			}
			r.iter.Reset(end + 1)
			return state, atDepth, false, nil
		}
		// Mirror the Opening case: enter the value.
		r.stack.Push(int(state), atDepth)
		atDepth++
		if err := r.checkDepth(atDepth, ev.ValueAt); err != nil {
			return state, depth, false, err
		}
		r.kinds.Set(atDepth, c == '{')
		if r.dfa.States[target].Accepting {
			r.emit(ev.ValueAt)
		}
		r.iter.Reset(ev.ValueAt + 1)
		r.toggle(target, atDepth)
		if c == '[' {
			r.tryMatchFirstItem(target, ev.ValueAt)
		}
		return target, atDepth, false, nil

	case classifier.TailClose:
		// Mirror the Closing case for the boundary closer.
		r.iter.Reset(ev.Pos + 1)
		if boundary == 0 && r.stack.Len() == 0 {
			r.tailEnd = ev.Pos
			return state, 0, true, nil
		}
		f := r.stack.Pop()
		restored := automaton.StateID(f.State)
		// The closing element matched its entering transition (we were in
		// a live waiting state), so the sibling skip applies when the
		// restored state is unitary.
		if r.dfa.States[restored].Unitary && !r.e.opts.DisableSkipSiblings {
			if _, nch, ok := r.iter.Peek(); ok && nch != '}' && nch != ']' {
				end, ok := classifier.SkipToClose(r.stream, ev.Pos+1, '{')
				if !ok {
					return state, depth, false, r.errMalformed(ev.Pos, "unterminated object")
				}
				r.iter.Reset(end)
			}
			return restored, boundary, false, nil
		}
		r.toggle(restored, boundary)
		return restored, boundary, false, nil

	default:
		return state, depth, false, r.errMalformed(r.endPos(), "unterminated document")
	}
}

// currentIndex returns the entry index of the array being scanned (0 when
// index tracking is off).
func (r *run) currentIndex() int {
	if !r.e.needsIndex || r.indices.Len() == 0 {
		return 0
	}
	return r.indices.Top()
}

// tryMatchFirstItem handles the corner case of §3.4: the first entry of an
// array is preceded by neither comma nor colon, so a leaf first entry must
// be matched when the array's entry transition accepts.
func (r *run) tryMatchFirstItem(state automaton.StateID, openPos int) {
	target := r.arrayEntryTarget(state, 0)
	if !r.dfa.States[target].Accepting {
		return
	}
	if _, nch, ok := r.iter.Peek(); !ok || nch == '{' || nch == '[' {
		return // composite first entry (or malformed): Opening handles it
	}
	vs := FirstNonWS(r.in, openPos+1)
	if !PlausibleValueStart(r.in, vs) {
		return // empty array or malformed input
	}
	r.emit(vs)
}

// The scalar scanning helpers (LabelBefore, FirstNonWS, LeafEnd,
// PlausibleValueStart) shared with the stackless engine and the multi-query
// driver live in scan.go.

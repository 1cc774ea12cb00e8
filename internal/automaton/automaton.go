// Package automaton compiles JSONPath queries into the minimal
// deterministic query automata of §3.1, annotated with the state classes
// that drive skipping (§3.3): accepting, rejecting (trash), internal,
// unitary, and waiting states.
//
// A query automaton runs on the word of labels along a root-to-node path.
// Array entries carry artificial labels: the entry index when the query
// uses index selectors, and otherwise a symbol distinct from every property
// name, falling under the fallback transition.
//
// Construction pipeline: the query becomes an NFA whose states are the
// selectors (descendant selectors are recursive, i.e. self-looping); the
// NFA is determinized by subset construction with the greedy-match pruning
// the paper derives from node semantics (§3.1: "once we reach a given
// recursive state in the NFA, we can forget about all previous states");
// the DFA is then minimized with Moore's algorithm and annotated.
package automaton

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"rsonpath/internal/jsonpath"
)

// StateID identifies a DFA state. The rejecting trash state is always
// present; use DFA.Trash to find it.
type StateID int

// LabelTransition is a transition taken on a concrete object-property name.
type LabelTransition struct {
	Label  []byte
	Target StateID
	// Pattern is the label in its quoted spelling ("label"), precomputed at
	// compile time for the memmem-based label seekers: runs reuse it instead
	// of rebuilding the search pattern per run or per record.
	Pattern []byte
}

// IndexTransition is a transition taken on a range of array indices
// covering Lo <= index < Hi (Hi < 0 means unbounded). Index and slice
// selectors partition the naturals into finitely many such ranges
// (extension; see DESIGN.md).
type IndexTransition struct {
	Lo     int
	Hi     int
	Target StateID
}

// Contains reports whether the range covers idx.
func (t IndexTransition) Contains(idx int) bool {
	return idx >= t.Lo && (t.Hi < 0 || idx < t.Hi)
}

// State is one annotated DFA state. Transitions listed explicitly override
// the fallback; explicit transitions equal to the fallback are removed
// during normalization.
type State struct {
	Labels   []LabelTransition
	Indexes  []IndexTransition
	Fallback StateID

	// Accepting states report a match (§3.1).
	Accepting bool
	// Rejecting states cannot reach an accepting state: the trash state
	// and anything trapped with it. Skipping children keys on this (§3.3).
	Rejecting bool
	// Internal states have no transition into an accepting state, so
	// leaves cannot match: skipping leaves keys on this (§3.3).
	Internal bool
	// Unitary states have exactly one concrete-label transition and a
	// rejecting fallback: skipping siblings keys on this (§3.3).
	Unitary bool
	// Waiting states have exactly one concrete-label transition and a
	// self-looping fallback: skipping to a label keys on this (§3.3).
	Waiting bool

	// CanAcceptInObject: some object child (any property) can be accepted
	// in one step — used to toggle colons (§3.4).
	CanAcceptInObject bool
	// CanAcceptInArray: some array entry can be accepted in one step —
	// used to toggle commas (§3.4).
	CanAcceptInArray bool
	// NeedsIndexInArray: the state has index transitions, so array entries
	// must be counted even if nothing accepts in one step (extension).
	NeedsIndexInArray bool
}

// DFA is a compiled, minimized, annotated query automaton.
type DFA struct {
	States  []State
	Initial StateID
	Trash   StateID
	query   *jsonpath.Query
	// rejectFrom holds RejectFrom per state, beside States so that a State
	// stays 64 bytes, one cache line.
	rejectFrom []int
}

// Query returns the source query.
func (d *DFA) Query() *jsonpath.Query { return d.query }

// RejectFrom returns the array index from which state s rejects every
// entry, or -1. It is set for states with index transitions when every
// index range is bounded and the fallback rejects: an array scan can stop
// once its entry counter reaches it, the sibling skip of §3.3 for index
// and slice selectors (extension).
func (d *DFA) RejectFrom(s StateID) int { return d.rejectFrom[s] }

// Transition returns the state reached from s on an object property name.
func (d *DFA) Transition(s StateID, label []byte) StateID {
	st := &d.States[s]
	for i := range st.Labels {
		if bytesEqual(st.Labels[i].Label, label) {
			return st.Labels[i].Target
		}
	}
	return st.Fallback
}

// TransitionIndex returns the state reached from s on an array entry index.
func (d *DFA) TransitionIndex(s StateID, idx int) StateID {
	st := &d.States[s]
	for i := range st.Indexes {
		if st.Indexes[i].Contains(idx) {
			return st.Indexes[i].Target
		}
	}
	return st.Fallback
}

// TransitionFallback returns the fallback target of s (array entries in
// index-free queries always take it).
func (d *DFA) TransitionFallback(s StateID) StateID {
	return d.States[s].Fallback
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MaxStates bounds the determinized automaton. Mixing descendants and
// wildcards can blow up exponentially (§3.1's ..a.*.*…* example); the cap
// turns that into an error instead of an OOM.
const MaxStates = 1 << 12

// ErrTooLarge is returned when determinization exceeds MaxStates.
var ErrTooLarge = errors.New("automaton: query automaton exceeds state limit")

// Options tunes compilation; the zero value is the paper's configuration.
type Options struct {
	// DisableGreedyPruning turns off the greedy-match subset pruning, for
	// the ablation study. The resulting DFA is equivalent but may be
	// larger before minimization.
	DisableGreedyPruning bool
}

// Compile builds the minimal annotated DFA for q.
func Compile(q *jsonpath.Query, opts Options) (*DFA, error) {
	n := nfaOf(q)
	raw, err := determinize(n, !opts.DisableGreedyPruning)
	if err != nil {
		return nil, err
	}
	raw = minimize(raw)
	d := buildStates(raw)
	d.annotate()
	d.query = q
	return d, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(q *jsonpath.Query) *DFA {
	d, err := Compile(q, Options{})
	if err != nil {
		panic(err)
	}
	return d
}

// ---------------------------------------------------------------------------
// NFA
// ---------------------------------------------------------------------------

// symbol is an element of the finite alphabet used for determinization:
// one id per concrete label in the query, one per concrete index, and a
// final fallback symbol standing for every other label or index.
type symbol int

// interval is a maximal range of array indices on which every selector of
// the query is constant: [lo, hi), hi < 0 meaning unbounded.
type interval struct {
	lo, hi int
}

// nfa represents the query as the selector-chain NFA of §3.1. State i
// means "the first i selectors are matched"; state len(selectors) accepts.
type nfa struct {
	query     *jsonpath.Query
	labels    [][]byte   // symbol id -> label bytes
	intervals []interval // symbol id - len(labels) -> index range
}

func nfaOf(q *jsonpath.Query) *nfa {
	n := &nfa{query: q}
	seenL := map[string]bool{}
	breaks := map[int]bool{}
	hasIndexKind := false
	for i := range q.Selectors {
		sel := &q.Selectors[i]
		for _, l := range sel.Labels {
			if !seenL[string(l)] {
				seenL[string(l)] = true
				n.labels = append(n.labels, l)
			}
		}
		for _, idx := range sel.Indices {
			hasIndexKind = true
			breaks[idx] = true
			breaks[idx+1] = true
		}
		for _, sl := range sel.Slices {
			hasIndexKind = true
			breaks[sl.Start] = true
			if sl.End >= 0 {
				breaks[sl.End] = true
			}
		}
	}
	if !hasIndexKind {
		return n // arrays fall under the generic fallback symbol
	}
	// Partition the naturals at the breakpoints: every selector predicate
	// is constant on each resulting interval, so one symbol per interval
	// suffices for determinization.
	breaks[0] = true
	points := make([]int, 0, len(breaks))
	for b := range breaks {
		points = append(points, b)
	}
	sort.Ints(points)
	for i, lo := range points {
		hi := -1
		if i+1 < len(points) {
			hi = points[i+1]
		}
		n.intervals = append(n.intervals, interval{lo: lo, hi: hi})
	}
	return n
}

func (n *nfa) alphabetSize() int { return len(n.labels) + len(n.intervals) + 1 }

func (n *nfa) fallbackSymbol() symbol { return symbol(len(n.labels) + len(n.intervals)) }

// matches reports whether selector sel advances on symbol a. The fallback
// symbol (any label or index not named by the query) matches only
// wildcards.
func (n *nfa) matches(sel *jsonpath.Selector, a symbol) bool {
	if sel.Wildcard {
		return true
	}
	if int(a) < len(n.labels) {
		return sel.MatchesLabel(n.labels[a])
	}
	if i := int(a) - len(n.labels); i < len(n.intervals) {
		// The selector is constant on the interval: its low end decides.
		return sel.MatchesIndex(n.intervals[i].lo)
	}
	return false
}

// recursive reports whether NFA state i self-loops (descendant selector).
func (n *nfa) recursive(i int) bool {
	return i < len(n.query.Selectors) && n.query.Selectors[i].Descendant
}

// accepting reports whether NFA state i accepts.
func (n *nfa) accepting(i int) bool { return i == len(n.query.Selectors) }

// stateSet is a sorted set of NFA states, usable as a map key via its
// string image.
type stateSet []int

func (s stateSet) key() string {
	var b strings.Builder
	for _, v := range s {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// move computes the successor subset on symbol a, optionally applying the
// greedy-match pruning.
func (n *nfa) move(s stateSet, a symbol, prune bool) stateSet {
	next := map[int]bool{}
	for _, i := range s {
		if n.accepting(i) {
			continue
		}
		if n.recursive(i) {
			next[i] = true
		}
		if n.matches(&n.query.Selectors[i], a) {
			next[i+1] = true
		}
	}
	out := make(stateSet, 0, len(next))
	for i := range next {
		out = append(out, i)
	}
	sort.Ints(out)
	if prune {
		out = n.pruneGreedy(out)
	}
	return out
}

// pruneGreedy drops every state below the greatest recursive state in the
// set. Soundness (under node semantics): any accepting continuation from a
// dropped state i < r passes through r, and r's self-loop can consume the
// prefix up to that point, so the continuation is also accepted from r.
func (n *nfa) pruneGreedy(s stateSet) stateSet {
	r := -1
	for _, i := range s {
		if n.recursive(i) && i > r {
			r = i
		}
	}
	if r <= 0 {
		return s
	}
	out := s[:0]
	for _, i := range s {
		if i >= r {
			out = append(out, i)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Determinization
// ---------------------------------------------------------------------------

// rawDFA is the pre-annotation automaton over the symbolic alphabet.
type rawDFA struct {
	n         *nfa
	accepting []bool
	// trans[s][a] for a in 0..alphabetSize-1 (fallback last).
	trans   [][]StateID
	initial StateID
	trash   StateID
}

func determinize(n *nfa, prune bool) (*rawDFA, error) {
	alpha := n.alphabetSize()
	d := &rawDFA{n: n}
	index := map[string]StateID{}
	var sets []stateSet

	add := func(s stateSet) StateID {
		k := s.key()
		if id, ok := index[k]; ok {
			return id
		}
		id := StateID(len(sets))
		index[k] = id
		sets = append(sets, s)
		d.trans = append(d.trans, make([]StateID, alpha))
		acc := false
		for _, i := range s {
			if n.accepting(i) {
				acc = true
			}
		}
		d.accepting = append(d.accepting, acc)
		return id
	}

	// The empty subset is the trash state; materialize it first so it
	// always exists.
	d.trash = add(stateSet{})
	start := stateSet{0}
	if prune {
		start = n.pruneGreedy(start)
	}
	d.initial = add(start)

	for work := 0; work < len(sets); work++ {
		for a := 0; a < alpha; a++ {
			t := n.move(sets[work], symbol(a), prune)
			id := add(t)
			if len(sets) > MaxStates {
				return nil, ErrTooLarge
			}
			d.trans[work][a] = id
		}
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// Minimization (Moore's algorithm)
// ---------------------------------------------------------------------------

func minimize(d *rawDFA) *rawDFA {
	nStates := len(d.trans)
	alpha := d.n.alphabetSize()
	// Initial partition: accepting vs not.
	class := make([]int, nStates)
	for s := 0; s < nStates; s++ {
		if d.accepting[s] {
			class[s] = 1
		}
	}
	nClasses := 2
	if nStates > 0 {
		// Degenerate case: everything accepting or nothing accepting.
		seen0, seen1 := false, false
		for _, c := range class {
			if c == 0 {
				seen0 = true
			} else {
				seen1 = true
			}
		}
		if !seen0 || !seen1 {
			nClasses = 1
			for s := range class {
				class[s] = 0
			}
		}
	}

	for {
		sig := make(map[string]int, nStates)
		next := make([]int, nStates)
		var b strings.Builder
		for s := 0; s < nStates; s++ {
			b.Reset()
			fmt.Fprintf(&b, "%d|", class[s])
			for a := 0; a < alpha; a++ {
				fmt.Fprintf(&b, "%d,", class[d.trans[s][a]])
			}
			k := b.String()
			id, ok := sig[k]
			if !ok {
				id = len(sig)
				sig[k] = id
			}
			next[s] = id
		}
		if len(sig) == nClasses {
			class = next
			break
		}
		nClasses = len(sig)
		class = next
	}

	out := &rawDFA{n: d.n}
	out.trans = make([][]StateID, nClasses)
	out.accepting = make([]bool, nClasses)
	for s := 0; s < nStates; s++ {
		c := class[s]
		if out.trans[c] == nil {
			out.trans[c] = make([]StateID, alpha)
			for a := 0; a < alpha; a++ {
				out.trans[c][a] = StateID(class[d.trans[s][a]])
			}
			out.accepting[c] = d.accepting[s]
		}
	}
	out.initial = StateID(class[d.initial])
	out.trash = StateID(class[d.trash])
	return out
}

// ---------------------------------------------------------------------------
// Normalization and annotation
// ---------------------------------------------------------------------------

// buildStates converts the symbolic transition table into the per-state
// label/index transition lists, dropping explicit transitions equal to the
// fallback.
func buildStates(r *rawDFA) *DFA {
	n := r.n
	alpha := n.alphabetSize()
	fb := int(n.fallbackSymbol())
	d := &DFA{Initial: r.initial, Trash: r.trash}
	d.States = make([]State, len(r.trans))
	// One quoted seek pattern per distinct label, shared by every transition
	// that carries it.
	patterns := make([][]byte, len(n.labels))
	for a, label := range n.labels {
		p := make([]byte, 0, len(label)+2)
		p = append(p, '"')
		p = append(p, label...)
		patterns[a] = append(p, '"')
	}
	for s := range r.trans {
		st := &d.States[s]
		st.Accepting = r.accepting[s]
		st.Fallback = r.trans[s][fb]
		for a := 0; a < alpha; a++ {
			if a == fb || r.trans[s][a] == st.Fallback {
				continue
			}
			if a < len(n.labels) {
				st.Labels = append(st.Labels, LabelTransition{
					Label: n.labels[a], Pattern: patterns[a], Target: r.trans[s][a]})
			} else {
				iv := n.intervals[a-len(n.labels)]
				st.Indexes = append(st.Indexes, IndexTransition{Lo: iv.lo, Hi: iv.hi, Target: r.trans[s][a]})
			}
		}
	}
	return d
}

// annotate computes the derived state classes of §3.3.
func (d *DFA) annotate() {
	// Rejecting: cannot reach an accepting state. Compute reachability of
	// accepting states over the reversed graph.
	n := len(d.States)
	canAccept := make([]bool, n)
	var stack []StateID
	rev := make([][]StateID, n)
	each := func(s StateID, f func(StateID)) {
		st := &d.States[s]
		for i := range st.Labels {
			f(st.Labels[i].Target)
		}
		for i := range st.Indexes {
			f(st.Indexes[i].Target)
		}
		f(st.Fallback)
	}
	for s := 0; s < n; s++ {
		each(StateID(s), func(t StateID) {
			rev[t] = append(rev[t], StateID(s))
		})
		if d.States[s].Accepting {
			canAccept[s] = true
			stack = append(stack, StateID(s))
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range rev[t] {
			if !canAccept[s] {
				canAccept[s] = true
				stack = append(stack, s)
			}
		}
	}

	d.rejectFrom = make([]int, n)
	for s := range d.States {
		st := &d.States[s]
		st.Rejecting = !canAccept[s]

		st.Internal = true
		anyLabelAccepts := false
		anyIndexAccepts := false
		each(StateID(s), func(t StateID) {
			if d.States[t].Accepting {
				st.Internal = false
			}
		})
		for i := range st.Labels {
			if d.States[st.Labels[i].Target].Accepting {
				anyLabelAccepts = true
			}
		}
		for i := range st.Indexes {
			if d.States[st.Indexes[i].Target].Accepting {
				anyIndexAccepts = true
			}
		}
		fbAccepts := d.States[st.Fallback].Accepting

		st.Unitary = len(st.Labels) == 1 && len(st.Indexes) == 0 &&
			d.States[st.Fallback].Rejecting
		st.Waiting = len(st.Labels) == 1 && len(st.Indexes) == 0 &&
			st.Fallback == StateID(s)

		st.CanAcceptInObject = anyLabelAccepts || fbAccepts
		st.CanAcceptInArray = fbAccepts || anyIndexAccepts
		st.NeedsIndexInArray = len(st.Indexes) > 0

		// Index ranges come in increasing order and only the last can be
		// open (Hi < 0); past its end only the fallback applies.
		d.rejectFrom[s] = -1
		if st.NeedsIndexInArray && !canAccept[st.Fallback] {
			d.rejectFrom[s] = st.Indexes[len(st.Indexes)-1].Hi
		}
	}
}

// String renders the automaton for debugging and documentation (the
// textual twin of the paper's Figure 2).
func (d *DFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFA for %s (initial %d, trash %d)\n", d.query, d.Initial, d.Trash)
	for s := range d.States {
		st := &d.States[s]
		var flags []string
		if st.Accepting {
			flags = append(flags, "accepting")
		}
		if st.Rejecting {
			flags = append(flags, "rejecting")
		}
		if st.Internal {
			flags = append(flags, "internal")
		}
		if st.Unitary {
			flags = append(flags, "unitary")
		}
		if st.Waiting {
			flags = append(flags, "waiting")
		}
		fmt.Fprintf(&b, "  state %d [%s]\n", s, strings.Join(flags, " "))
		for _, tr := range st.Labels {
			fmt.Fprintf(&b, "    %q -> %d\n", tr.Label, tr.Target)
		}
		for _, tr := range st.Indexes {
			if tr.Hi < 0 {
				fmt.Fprintf(&b, "    [%d:] -> %d\n", tr.Lo, tr.Target)
			} else {
				fmt.Fprintf(&b, "    [%d:%d] -> %d\n", tr.Lo, tr.Hi, tr.Target)
			}
		}
		fmt.Fprintf(&b, "    _ -> %d\n", st.Fallback)
		if from := d.rejectFrom[s]; from >= 0 {
			fmt.Fprintf(&b, "    entries from [%d] rejected\n", from)
		}
	}
	return b.String()
}

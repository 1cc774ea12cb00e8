package automaton

import (
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/jsonpath"
)

// word is a path of labels; "#k" entries denote array entries with index k,
// and any other entry is an object property name.
type word []string

// refAccepts decides acceptance of a path by direct NFA simulation — the
// oracle for the whole compilation pipeline.
func refAccepts(q *jsonpath.Query, w word) bool {
	current := map[int]bool{0: true}
	for _, a := range w {
		next := map[int]bool{}
		for i := range current {
			if i == len(q.Selectors) {
				continue
			}
			sel := &q.Selectors[i]
			if sel.Descendant {
				next[i] = true
			}
			if selectorMatches(sel, a) {
				next[i+1] = true
			}
		}
		current = next
	}
	return current[len(q.Selectors)]
}

func selectorMatches(sel *jsonpath.Selector, a string) bool {
	if sel.Wildcard {
		return true
	}
	if strings.HasPrefix(a, "#") {
		idx := 0
		for _, c := range a[1:] {
			idx = idx*10 + int(c-'0')
		}
		return sel.MatchesIndex(idx)
	}
	return sel.MatchesLabel([]byte(a))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// dfaAccepts runs the compiled DFA on a path.
func dfaAccepts(d *DFA, w word) bool {
	s := d.Initial
	for _, a := range w {
		if strings.HasPrefix(a, "#") {
			idx := 0
			for _, c := range a[1:] {
				idx = idx*10 + int(c-'0')
			}
			s = d.TransitionIndex(s, idx)
		} else {
			s = d.Transition(s, []byte(a))
		}
	}
	return d.States[s].Accepting
}

// enumerate all words of length up to maxLen over the alphabet.
func enumerateWords(alphabet []string, maxLen int, f func(word)) {
	var rec func(prefix word, depth int)
	rec = func(prefix word, depth int) {
		f(prefix)
		if depth == maxLen {
			return
		}
		for _, a := range alphabet {
			rec(append(prefix[:len(prefix):len(prefix)], a), depth+1)
		}
	}
	rec(word{}, 0)
}

// testAlphabet derives an exercise alphabet from the query: its labels,
// two fresh labels, its indices, and one fresh index.
func testAlphabet(q *jsonpath.Query) []string {
	var out []string
	for _, l := range q.Labels() {
		out = append(out, string(l))
	}
	out = append(out, "zz1", "zz2", "#0", "#7")
	return out
}

func assertLanguage(t *testing.T, queryStr string, maxLen int) *DFA {
	t.Helper()
	q := jsonpath.MustParse(queryStr)
	d := MustCompile(q)
	dUnpruned, err := Compile(q, Options{DisableGreedyPruning: true})
	if err != nil {
		t.Fatalf("unpruned compile of %q: %v", queryStr, err)
	}
	alphabet := testAlphabet(q)
	enumerateWords(alphabet, maxLen, func(w word) {
		want := refAccepts(q, w)
		if got := dfaAccepts(d, w); got != want {
			t.Fatalf("%s on %v: pruned DFA says %v, NFA says %v\n%s", queryStr, w, got, want, d)
		}
		if got := dfaAccepts(dUnpruned, w); got != want {
			t.Fatalf("%s on %v: unpruned DFA says %v, NFA says %v", queryStr, w, got, want)
		}
	})
	return d
}

func TestLanguageChildOnly(t *testing.T) {
	assertLanguage(t, "$.a", 4)
	assertLanguage(t, "$.a.b", 4)
	assertLanguage(t, "$.a.b.c", 4)
	assertLanguage(t, "$.*", 4)
	assertLanguage(t, "$.a.*.c", 4)
	assertLanguage(t, "$", 3)
}

func TestLanguageFigure1(t *testing.T) {
	// Figure 1's query: $.a.b.*.c.* — a chain DFA.
	d := assertLanguage(t, "$.a.b.*.c.*", 6)
	// 6 live states (one per matched prefix) plus trash.
	if len(d.States) != 7 {
		t.Errorf("Figure 1 DFA has %d states, want 7\n%s", len(d.States), d)
	}
}

func TestLanguageDescendants(t *testing.T) {
	assertLanguage(t, "$..a", 5)
	assertLanguage(t, "$..a..b", 5)
	assertLanguage(t, "$..a.b", 5)
	assertLanguage(t, "$.a..b", 5)
	assertLanguage(t, "$..*", 4)
	assertLanguage(t, "$..a..a", 5)
	assertLanguage(t, "$..a.a..a", 5)
}

func TestLanguageFigure2(t *testing.T) {
	// Figure 2's query: $.a..b.*..c.* with three segments.
	assertLanguage(t, "$.a..b.*..c.*", 6)
}

func TestLanguageWildcardDescendantMix(t *testing.T) {
	assertLanguage(t, "$..a.*", 5)
	assertLanguage(t, "$..*.a", 5)
	assertLanguage(t, "$.*..a", 5)
	assertLanguage(t, "$..a.*.b", 5)
	assertLanguage(t, "$..a.*.*", 5) // exponential-family member, small instance
}

func TestLanguageIndexes(t *testing.T) {
	assertLanguage(t, "$[0]", 3)
	assertLanguage(t, "$.a[0].b", 4)
	assertLanguage(t, "$..[7]", 4)
	assertLanguage(t, "$[0][7]", 4)
}

func TestLanguageRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 60; trial++ {
		var sb strings.Builder
		sb.WriteString("$")
		steps := 1 + r.Intn(4)
		for i := 0; i < steps; i++ {
			if r.Intn(3) == 0 {
				sb.WriteString("..")
			} else {
				sb.WriteString(".")
			}
			if r.Intn(4) == 0 {
				sb.WriteString("*")
			} else {
				sb.WriteString(labels[r.Intn(len(labels))])
			}
		}
		assertLanguage(t, sb.String(), 5)
	}
}

func TestMinimality(t *testing.T) {
	// No two states of the compiled DFA may be equivalent: re-running
	// partition refinement on the output must not merge anything.
	queries := []string{
		"$.a.b.*.c.*", "$..a..b", "$.a..b.*..c.*", "$..a.*", "$..a.b.c", "$..*",
	}
	for _, qs := range queries {
		q := jsonpath.MustParse(qs)
		d := MustCompile(q)
		if merged := countEquivalenceClasses(d, q); merged != len(d.States) {
			t.Errorf("%s: %d states but only %d equivalence classes\n%s",
				qs, len(d.States), merged, d)
		}
	}
}

// countEquivalenceClasses runs Moore refinement over the annotated DFA
// using the query's labels plus a fresh symbol as the alphabet.
func countEquivalenceClasses(d *DFA, q *jsonpath.Query) int {
	alphabet := q.Labels()
	alphabet = append(alphabet, []byte("§fresh§"))
	n := len(d.States)
	class := make([]int, n)
	for s := range d.States {
		if d.States[s].Accepting {
			class[s] = 1
		}
	}
	for {
		sig := map[string]int{}
		next := make([]int, n)
		for s := 0; s < n; s++ {
			var b strings.Builder
			b.WriteString(itoa(class[s]))
			for _, l := range alphabet {
				b.WriteString("," + itoa(class[d.Transition(StateID(s), l)]))
			}
			id, ok := sig[b.String()]
			if !ok {
				id = len(sig)
				sig[b.String()] = id
			}
			next[s] = id
		}
		same := true
		for s := range next {
			if next[s] != class[s] {
				same = false
			}
		}
		class = next
		if same || len(sig) == n {
			return len(sig)
		}
	}
}

func TestStateClasses(t *testing.T) {
	// $.a: initial is unitary (single label, rejecting fallback).
	d := MustCompile(jsonpath.MustParse("$.a"))
	init := &d.States[d.Initial]
	if !init.Unitary || init.Waiting {
		t.Errorf("$.a initial classes wrong:\n%s", d)
	}
	if init.Internal {
		t.Errorf("$.a initial should not be internal (a leaf 'a' matches):\n%s", d)
	}

	// $..a: initial is waiting (single label, self fallback).
	d = MustCompile(jsonpath.MustParse("$..a"))
	init = &d.States[d.Initial]
	if !init.Waiting || init.Unitary {
		t.Errorf("$..a initial classes wrong:\n%s", d)
	}

	// $.a.b: initial is unitary and internal (must descend two levels).
	d = MustCompile(jsonpath.MustParse("$.a.b"))
	init = &d.States[d.Initial]
	if !init.Unitary || !init.Internal {
		t.Errorf("$.a.b initial classes wrong:\n%s", d)
	}

	// Trash state is rejecting and loops to itself.
	if !d.States[d.Trash].Rejecting {
		t.Errorf("trash not rejecting")
	}
	if d.States[d.Trash].Fallback != d.Trash {
		t.Errorf("trash does not loop")
	}

	// $.*: everything matches in one step.
	d = MustCompile(jsonpath.MustParse("$.*"))
	init = &d.States[d.Initial]
	if !init.CanAcceptInObject || !init.CanAcceptInArray {
		t.Errorf("$.* initial toggle flags wrong:\n%s", d)
	}
	if init.Internal {
		t.Errorf("$.* initial should not be internal")
	}

	// $.a: 'a' accepts in objects but nothing accepts in arrays.
	d = MustCompile(jsonpath.MustParse("$.a"))
	init = &d.States[d.Initial]
	if !init.CanAcceptInObject || init.CanAcceptInArray {
		t.Errorf("$.a toggle flags wrong:\n%s", d)
	}
}

func TestGreedyMatchNestedLabels(t *testing.T) {
	// §3.1's greedy-match discussion: for $..a the state after 'a' must
	// itself handle nested 'a's (path aa accepted, path a-other-a too).
	d := MustCompile(jsonpath.MustParse("$..a"))
	s := d.Transition(d.Initial, []byte("a"))
	if !d.States[s].Accepting {
		t.Fatalf("state after a not accepting:\n%s", d)
	}
	s2 := d.Transition(s, []byte("a"))
	if !d.States[s2].Accepting {
		t.Fatalf("nested a not accepting:\n%s", d)
	}
}

func TestPruningReducesSubsets(t *testing.T) {
	// The paper's exponential family ..a.*.*: with pruning the automaton
	// stays equivalent; both are checked by TestLanguageWildcardDescendantMix.
	// Here: ensure the pruned construction is never larger.
	queries := []string{"$..a.*.*", "$..a.*.*.*", "$..a..b.*", "$.a..b.*..c.*"}
	for _, qs := range queries {
		q := jsonpath.MustParse(qs)
		pruned := MustCompile(q)
		unpruned, err := Compile(q, Options{DisableGreedyPruning: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(pruned.States) > len(unpruned.States) {
			t.Errorf("%s: pruned %d states > unpruned %d", qs, len(pruned.States), len(unpruned.States))
		}
	}
}

func TestTooLargeQuery(t *testing.T) {
	// ..a followed by many wildcards reconstructs the classical NFA→DFA
	// exponential blowup (§3.1); compilation must fail cleanly.
	q := jsonpath.MustParse("$..a" + strings.Repeat(".*", 16))
	if _, err := Compile(q, Options{}); err != ErrTooLarge {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}

func TestStringRendering(t *testing.T) {
	d := MustCompile(jsonpath.MustParse("$.a..b"))
	s := d.String()
	for _, want := range []string{"initial", "state 0", `"a"`, `"b"`, "->"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTransitionHelpers(t *testing.T) {
	d := MustCompile(jsonpath.MustParse("$.a[3]"))
	s := d.Transition(d.Initial, []byte("a"))
	if d.States[s].Rejecting {
		t.Fatalf("a-transition rejected:\n%s", d)
	}
	acc := d.TransitionIndex(s, 3)
	if !d.States[acc].Accepting {
		t.Fatalf("[3] not accepting:\n%s", d)
	}
	if rej := d.TransitionIndex(s, 2); !d.States[rej].Rejecting {
		t.Fatalf("[2] should reject:\n%s", d)
	}
	if rej := d.Transition(s, []byte("b")); !d.States[rej].Rejecting {
		t.Fatalf("label in place of index should reject:\n%s", d)
	}
	if fb := d.TransitionFallback(d.Initial); !d.States[fb].Rejecting {
		t.Fatalf("fallback of $.a[3] initial should reject")
	}
}

func TestCompileIdempotentAcrossCalls(t *testing.T) {
	q := jsonpath.MustParse("$..a.b")
	d1 := MustCompile(q)
	d2 := MustCompile(q)
	if d1.String() != d2.String() {
		t.Error("compilation is not deterministic")
	}
}

func TestLanguageUnions(t *testing.T) {
	assertLanguage(t, "$['a','b']", 4)
	assertLanguage(t, "$..['a','b']", 5)
	assertLanguage(t, "$['a','b'].c", 4)
	assertLanguage(t, "$..['a','b']..c", 5)
	assertLanguage(t, "$['a',0]", 4)
	assertLanguage(t, "$..['a',7]", 4)
	assertLanguage(t, "$[0,7]", 4)
}

func TestLanguageRandomUnionQueries(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	labels := []string{"a", "b", "c"}
	for trial := 0; trial < 40; trial++ {
		var sb strings.Builder
		sb.WriteString("$")
		steps := 1 + r.Intn(3)
		for i := 0; i < steps; i++ {
			desc := ""
			if r.Intn(3) == 0 {
				desc = ".."
			}
			switch r.Intn(3) {
			case 0:
				sb.WriteString(desc + "['" + labels[r.Intn(3)] + "','" + labels[r.Intn(3)] + "']")
			case 1:
				sb.WriteString(desc + "['" + labels[r.Intn(3)] + "'," + []string{"0", "7"}[r.Intn(2)] + "]")
			default:
				if desc == "" {
					desc = "."
				}
				sb.WriteString(desc + labels[r.Intn(3)])
			}
		}
		assertLanguage(t, sb.String(), 4)
	}
}

func TestLanguageSlices(t *testing.T) {
	// The word alphabet includes #0 and #7: boundaries around them probe
	// the interval partition.
	assertLanguage(t, "$[0:2]", 4)
	assertLanguage(t, "$[1:]", 4)
	assertLanguage(t, "$[:7]", 4)
	assertLanguage(t, "$[7:]", 4)
	assertLanguage(t, "$.a[0:8].b", 4)
	assertLanguage(t, "$..[5:]", 4)
	assertLanguage(t, "$['a',0:2]", 4)
	assertLanguage(t, "$[0:2][7:]", 4)
}

func TestIndexRangeTransitions(t *testing.T) {
	d := MustCompile(jsonpath.MustParse("$[2:5]"))
	if !d.States[d.TransitionIndex(d.Initial, 2)].Accepting ||
		!d.States[d.TransitionIndex(d.Initial, 4)].Accepting {
		t.Fatalf("in-slice index rejected:\n%s", d)
	}
	if d.States[d.TransitionIndex(d.Initial, 1)].Accepting ||
		d.States[d.TransitionIndex(d.Initial, 5)].Accepting ||
		d.States[d.TransitionIndex(d.Initial, 100)].Accepting {
		t.Fatalf("out-of-slice index accepted:\n%s", d)
	}
	// Unbounded slices accept arbitrarily high indices.
	d = MustCompile(jsonpath.MustParse("$[3:]"))
	if !d.States[d.TransitionIndex(d.Initial, 1000000)].Accepting {
		t.Fatalf("high index rejected by open slice:\n%s", d)
	}
}

// TestRejectFrom pins the index past which every array entry is rejected:
// the end of the last index range when every range is bounded and the
// fallback rejects, and -1 when an open slice or a wildcard or descendant
// fallback keeps later entries alive.
func TestRejectFrom(t *testing.T) {
	for _, tc := range []struct {
		query string
		want  int // RejectFrom of the state reached by the path below
		path  []string
	}{
		{"$[0]", 1, nil},
		{"$[3]", 4, nil},
		{"$[0:2].b", 2, nil},
		{"$[1,5:7]", 7, nil},
		{"$.a[2:5]", 5, []string{"a"}},
		{"$[1:]", -1, nil},
		{"$[0,3:]", -1, nil},
		{"$..a[0]", -1, []string{"a"}},
		{"$.a", -1, nil},
		{"$.*", -1, nil},
	} {
		d := MustCompile(jsonpath.MustParse(tc.query))
		s := d.Initial
		for _, l := range tc.path {
			s = d.Transition(s, []byte(l))
		}
		if got := d.RejectFrom(s); got != tc.want {
			t.Errorf("%s: RejectFrom = %d, want %d:\n%s", tc.query, got, tc.want, d)
		}
		for id := range d.States {
			if from := d.RejectFrom(StateID(id)); from >= 0 && !d.States[id].NeedsIndexInArray {
				t.Errorf("%s: state %d without index transitions has RejectFrom %d", tc.query, id, from)
			}
		}
	}
	if s := MustCompile(jsonpath.MustParse("$.a[3]")).String(); !strings.Contains(s, "entries from [4] rejected") {
		t.Errorf("String() does not show RejectFrom:\n%s", s)
	}
}

package jsonpath

import (
	"strings"
	"testing"
)

// Target mimics the original single-alternative constructor interface so
// the table-driven tests read naturally.
type Target int

const (
	TargetLabel Target = iota
	TargetWildcard
	TargetIndex
)

func sel(desc bool, target Target, label string, index int) Selector {
	s := Selector{Descendant: desc}
	switch target {
	case TargetWildcard:
		s.Wildcard = true
	case TargetIndex:
		s.Indices = []int{index}
	default:
		s.Labels = [][]byte{[]byte(label)}
	}
	return s
}

func eqSel(a, b Selector) bool {
	if a.Descendant != b.Descendant || a.Wildcard != b.Wildcard {
		return false
	}
	if len(a.Labels) != len(b.Labels) || len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Labels {
		if string(a.Labels[i]) != string(b.Labels[i]) {
			return false
		}
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	return true
}

func assertParse(t *testing.T, input string, want ...Selector) *Query {
	t.Helper()
	q, err := Parse(input)
	if err != nil {
		t.Fatalf("Parse(%q): %v", input, err)
	}
	if len(q.Selectors) != len(want) {
		t.Fatalf("Parse(%q): %d selectors %v, want %d", input, len(q.Selectors), q.Selectors, len(want))
	}
	for i := range want {
		if !eqSel(q.Selectors[i], want[i]) {
			t.Fatalf("Parse(%q) selector %d = %+v, want %+v", input, i, q.Selectors[i], want[i])
		}
	}
	return q
}

func assertParseError(t *testing.T, input string) {
	t.Helper()
	if q, err := Parse(input); err == nil {
		t.Fatalf("Parse(%q) succeeded with %v, want error", input, q.Selectors)
	}
}

func TestParseRoot(t *testing.T) {
	assertParse(t, "$")
}

func TestParsePaperGrammar(t *testing.T) {
	assertParse(t, "$.a",
		sel(false, TargetLabel, "a", 0))
	assertParse(t, "$.a.b",
		sel(false, TargetLabel, "a", 0), sel(false, TargetLabel, "b", 0))
	assertParse(t, "$.*",
		sel(false, TargetWildcard, "", 0))
	assertParse(t, "$..a",
		sel(true, TargetLabel, "a", 0))
	// The paper's Figure 2 query.
	assertParse(t, "$.a..b.*..c.*",
		sel(false, TargetLabel, "a", 0),
		sel(true, TargetLabel, "b", 0),
		sel(false, TargetWildcard, "", 0),
		sel(true, TargetLabel, "c", 0),
		sel(false, TargetWildcard, "", 0))
}

func TestParseBenchmarkQueries(t *testing.T) {
	// Every query from Tables 4-6 must parse.
	queries := []string{
		"$.products.*.categoryPath.*.id",
		"$.products.*.videoChapters.*.chapter",
		"$.products.*.videoChapters",
		"$.*.routes.*.legs.*.steps.*.distance.text",
		"$.*.available_travel_modes",
		"$.meta.view.columns.*.name",
		"$.data.*.*.*",
		"$.*.entities.urls.*.url",
		"$.*.text",
		"$.items.*.bestMarketplacePrice.price",
		"$.items.*.name",
		"$.*.claims.P150.*.mainsnak.property",
		"$..categoryPath..id",
		"$..videoChapters..chapter",
		"$..available_travel_modes",
		"$..bestMarketplacePrice.price",
		"$..name",
		"$..P150..mainsnak.property",
		"$..decl.name",
		"$..inner..inner..type.qualType",
		"$..DOI",
		"$.items.*.author.*.affiliation.*.name",
		"$..author..affiliation..name",
		"$.search_metadata.count",
		"$..count",
		"$..search_metadata.count",
		"$..affiliation..name",
	}
	for _, s := range queries {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q): %v", s, err)
		}
	}
}

func TestParseDescendantWildcard(t *testing.T) {
	assertParse(t, "$..*", sel(true, TargetWildcard, "", 0))
	assertParse(t, "$.a..*.b",
		sel(false, TargetLabel, "a", 0),
		sel(true, TargetWildcard, "", 0),
		sel(false, TargetLabel, "b", 0))
}

func TestParseBracketForms(t *testing.T) {
	assertParse(t, "$['a']", sel(false, TargetLabel, "a", 0))
	assertParse(t, `$["a"]`, sel(false, TargetLabel, "a", 0))
	assertParse(t, "$[*]", sel(false, TargetWildcard, "", 0))
	assertParse(t, "$[0]", sel(false, TargetIndex, "", 0))
	assertParse(t, "$[42]", sel(false, TargetIndex, "", 42))
	assertParse(t, "$..[3]", sel(true, TargetIndex, "", 3))
	assertParse(t, "$[ 'spaced' ]", sel(false, TargetLabel, "spaced", 0))
	assertParse(t, "$.products[*].categoryPath[*].id",
		sel(false, TargetLabel, "products", 0),
		sel(false, TargetWildcard, "", 0),
		sel(false, TargetLabel, "categoryPath", 0),
		sel(false, TargetWildcard, "", 0),
		sel(false, TargetLabel, "id", 0))
}

func TestParseQuotedEscapes(t *testing.T) {
	assertParse(t, `$['a\'b']`, sel(false, TargetLabel, "a'b", 0))
	assertParse(t, `$["a\"b"]`, sel(false, TargetLabel, `a"b`, 0))
	assertParse(t, `$['a\\b']`, sel(false, TargetLabel, `a\b`, 0))
	// Unknown escapes preserved verbatim: matches document bytes "a\nb".
	assertParse(t, `$['a\nb']`, sel(false, TargetLabel, `a\nb`, 0))
	assertParse(t, `$['we"ird']`, sel(false, TargetLabel, `we"ird`, 0))
}

func TestParseLabelsWithSpecialBareChars(t *testing.T) {
	assertParse(t, "$.snake_case", sel(false, TargetLabel, "snake_case", 0))
	assertParse(t, "$.kebab-case", sel(false, TargetLabel, "kebab-case", 0))
	assertParse(t, "$.P150", sel(false, TargetLabel, "P150", 0))
	assertParse(t, "$.łabel", sel(false, TargetLabel, "łabel", 0))
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a",
		".a",
		"$a",
		"$.",
		"$..",
		"$...a",
		"$.a.",
		"$.[a]",
		"$['a'",
		"$['a]",
		"$[a]",
		"$[]",
		"$[-1]",
		"$[1.5]",
		"$.a b",
		"$ .a",
		"$.a..",
		`$['a\`,
	}
	for _, s := range bad {
		assertParseError(t, s)
	}
}

// TestParseErrorAtEndOfQuery: a query that stops early names the end of
// the query, not a NUL byte the query does not hold.
func TestParseErrorAtEndOfQuery(t *testing.T) {
	for _, q := range []string{"$[", "$.", "$..", "$.a["} {
		_, err := Parse(q)
		if err == nil || !strings.Contains(err.Error(), "found end of query") || strings.Contains(err.Error(), `\x00`) {
			t.Fatalf("Parse(%q) = %v, want an error naming the end of the query", q, err)
		}
	}
	_, err := Parse("$x")
	if err == nil || !strings.Contains(err.Error(), "found 'x'") {
		t.Fatalf("Parse(%q) = %v, want an error naming 'x'", "$x", err)
	}
}

func TestParseErrorReportsOffset(t *testing.T) {
	_, err := Parse("$.a.[b]")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Offset != 4 {
		t.Fatalf("offset = %d, want 4 (%v)", pe.Offset, err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	canonical := []string{
		"$",
		"$.a",
		"$..a",
		"$.*",
		"$..*",
		"$.a..b.*..c.*",
		"$[0]",
		"$..[3]",
		"$['a b']",
	}
	for _, s := range canonical {
		q := MustParse(s)
		if q.String() != s {
			t.Errorf("String() of %q = %q", s, q.String())
		}
		// Round-trip: re-parsing the rendering yields the same selectors.
		q2 := MustParse(q.String())
		if len(q2.Selectors) != len(q.Selectors) {
			t.Errorf("round trip of %q changed arity", s)
		}
	}
	// Bracket forms normalise to dot forms where possible.
	if got := MustParse("$['a']").String(); got != "$.a" {
		t.Errorf("canonical form of $['a'] = %q", got)
	}
	if got := MustParse(`$['a\'b']`).String(); got != `$['a\'b']` {
		t.Errorf("canonical form with quote = %q", got)
	}
}

func TestQueryHelpers(t *testing.T) {
	labels := MustParse("$.a..b.a.c").Labels()
	if len(labels) != 3 || string(labels[0]) != "a" || string(labels[1]) != "b" || string(labels[2]) != "c" {
		t.Errorf("Labels() = %q", labels)
	}
	if MustParse("$.raw").Raw() != "$.raw" {
		t.Error("Raw() mismatch")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("not a query")
}

func selUnion(desc bool, labels []string, indices []int) Selector {
	s := Selector{Descendant: desc, Indices: indices}
	for _, l := range labels {
		s.Labels = append(s.Labels, []byte(l))
	}
	return s
}

func TestParseUnions(t *testing.T) {
	assertParse(t, "$['a','b']", selUnion(false, []string{"a", "b"}, nil))
	assertParse(t, `$["a",'b',"c"]`, selUnion(false, []string{"a", "b", "c"}, nil))
	assertParse(t, "$[0,2]", selUnion(false, nil, []int{0, 2}))
	assertParse(t, "$['a',0]", selUnion(false, []string{"a"}, []int{0}))
	assertParse(t, "$..['a','b']", selUnion(true, []string{"a", "b"}, nil))
	assertParse(t, "$[ 'a' , 1 ]", selUnion(false, []string{"a"}, []int{1}))
}

func TestParseUnionErrors(t *testing.T) {
	for _, s := range []string{"$['a',]", "$['a',*]", "$[*,'a']", "$['a' 'b']", "$['a',"} {
		assertParseError(t, s)
	}
}

func TestUnionHelpers(t *testing.T) {
	q := MustParse("$['a','b',3]")
	sel := &q.Selectors[0]
	if !sel.MatchesLabel([]byte("a")) || !sel.MatchesLabel([]byte("b")) || sel.MatchesLabel([]byte("c")) {
		t.Error("MatchesLabel wrong")
	}
	if !sel.MatchesIndex(3) || sel.MatchesIndex(0) {
		t.Error("MatchesIndex wrong")
	}
	if !sel.IsUnion() {
		t.Error("IsUnion false")
	}
}

func TestUnionStringRoundTrip(t *testing.T) {
	for _, s := range []string{"$['a','b']", "$[0,2]", "$['a',0]", "$..['a','b']"} {
		q := MustParse(s)
		q2 := MustParse(q.String())
		if q.String() != q2.String() {
			t.Errorf("round trip of %q: %q vs %q", s, q.String(), q2.String())
		}
	}
}

func TestParseSlices(t *testing.T) {
	q := MustParse("$[1:3]")
	sel := q.Selectors[0]
	if len(sel.Slices) != 1 || sel.Slices[0] != (Slice{Start: 1, End: 3}) {
		t.Fatalf("selector %+v", sel)
	}
	q = MustParse("$[2:]")
	if q.Selectors[0].Slices[0] != (Slice{Start: 2, End: -1}) {
		t.Fatalf("selector %+v", q.Selectors[0])
	}
	q = MustParse("$[:2]")
	if q.Selectors[0].Slices[0] != (Slice{Start: 0, End: 2}) {
		t.Fatalf("selector %+v", q.Selectors[0])
	}
	q = MustParse("$[:]")
	if q.Selectors[0].Slices[0] != (Slice{Start: 0, End: -1}) {
		t.Fatalf("selector %+v", q.Selectors[0])
	}
	q = MustParse("$..[1:3]")
	if !q.Selectors[0].Descendant || len(q.Selectors[0].Slices) != 1 {
		t.Fatalf("selector %+v", q.Selectors[0])
	}
	// Unions of slices, indices and labels.
	q = MustParse("$['a',0,2:4]")
	sel = q.Selectors[0]
	if len(sel.Labels) != 1 || len(sel.Indices) != 1 || len(sel.Slices) != 1 {
		t.Fatalf("selector %+v", sel)
	}
	if !sel.IsUnion() || !sel.SelectsIndices() {
		t.Fatal("union/index helpers wrong")
	}
}

func TestSliceContains(t *testing.T) {
	s := Slice{Start: 1, End: 3}
	for i, want := range map[int]bool{0: false, 1: true, 2: true, 3: false} {
		if s.Contains(i) != want {
			t.Errorf("Contains(%d) = %v", i, !want)
		}
	}
	open := Slice{Start: 2, End: -1}
	if open.Contains(1) || !open.Contains(2) || !open.Contains(1000) {
		t.Error("open slice wrong")
	}
}

func TestParseSliceErrors(t *testing.T) {
	for _, s := range []string{"$[1:2:3]", "$[1:2:]", "$[-1:]", "$[1:-2]", "$[a:]"} {
		assertParseError(t, s)
	}
}

func TestSliceStringRoundTrip(t *testing.T) {
	for _, s := range []string{"$[1:3]", "$[2:]", "$[0:]", "$..[1:2]", "$['a',0,2:4]"} {
		q := MustParse(s)
		q2 := MustParse(q.String())
		if q.String() != q2.String() {
			t.Errorf("round trip of %q: %q vs %q", s, q.String(), q2.String())
		}
	}
}

package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/automaton"
	"rsonpath/internal/classifier"
	"rsonpath/internal/dom"
	"rsonpath/internal/input"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/simd"
)

// allOptionSets are the optimization configurations every differential test
// runs under: the default (everything on), each skipping technique disabled
// in isolation, and everything disabled (pure simulation).
var allOptionSets = map[string]Options{
	"default":      {},
	"no-headskip":  {DisableHeadSkip: true},
	"no-children":  {DisableSkipChildren: true},
	"no-siblings":  {DisableSkipSiblings: true},
	"no-leaves":    {DisableSkipLeaves: true},
	"all-disabled": {DisableHeadSkip: true, DisableSkipChildren: true, DisableSkipSiblings: true, DisableSkipLeaves: true},
	"tail-skip":    {EnableTailSkip: true},
	"tail-only":    {EnableTailSkip: true, DisableHeadSkip: true, DisableSkipChildren: true, DisableSkipSiblings: true},
}

func engineOffsets(t *testing.T, query, doc string, opts Options) []int {
	t.Helper()
	e, err := CompileQuery(query, opts)
	if err != nil {
		t.Fatalf("CompileQuery(%q): %v", query, err)
	}
	got, err := e.Matches([]byte(doc))
	if err != nil {
		t.Fatalf("Matches(%q, %q): %v", query, doc, err)
	}
	return got
}

// assertAgainstOracle checks the engine's match offsets against the DOM
// evaluator under every option set.
func assertAgainstOracle(t *testing.T, query, doc string) {
	t.Helper()
	root, err := dom.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("oracle rejects %q: %v", doc, err)
	}
	want := dom.MatchOffsets(root, jsonpath.MustParse(query))
	for name, opts := range allOptionSets {
		got := engineOffsets(t, query, doc, opts)
		if !equalInts(got, want) {
			t.Fatalf("[%s] %s on %s:\n  engine: %v\n  oracle: %v",
				name, query, doc, got, want)
		}
	}
}

func equalInts(a, b []int) bool {
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

func TestPaperSection2Example(t *testing.T) {
	assertAgainstOracle(t, "$.a..b.*", `{"a":[{"b":{"c":1}}, {"b":[2]}]}`)
}

func TestPaperNodeSemanticsExample(t *testing.T) {
	assertAgainstOracle(t, "$..a..b", `{"a":{"a":{"a":{"b":"Yay!"}}}}`)
}

func TestPaperGreedyMatchExample(t *testing.T) {
	// §3.1: .a..b.*..c.* over a:{b:{b:{b:{c:[42]}}}}.
	assertAgainstOracle(t, "$.a..b.*..c.*", `{"a":{"b":{"b":{"b":{"c":[42]}}}}}`)
}

func TestPaperFigure2SkippingWalkthrough(t *testing.T) {
	// §3.3's running example document.
	doc := `{"b":"Long string with no matches for sure",
	         "c":[1,2,3,4,5,6,7,8,9,10],
	         "a":{"b":{"x":{"c":[1]}}},
	         "z":0}`
	assertAgainstOracle(t, "$.a..b.*..c.*", doc)
	assertAgainstOracle(t, "$.a..b.*", doc)
}

func TestChildQueries(t *testing.T) {
	doc := `{"a": {"b": 1, "c": {"d": [5, 6]}}, "b": 2, "arr": [1, [2, 3], {"b": 7}]}`
	for _, q := range []string{
		"$", "$.a", "$.b", "$.a.b", "$.a.c.d", "$.missing", "$.a.missing",
		"$.*", "$.a.*", "$.*.*", "$.arr.*", "$.*.b", "$.a.*.d", "$.*.*.*",
	} {
		assertAgainstOracle(t, q, doc)
	}
}

func TestDescendantQueries(t *testing.T) {
	doc := `{"a": {"a": {"b": 1}, "b": {"a": {"b": 2}}}, "b": [{"a": {"b": 3}}, 4]}`
	for _, q := range []string{
		"$..a", "$..b", "$..a..b", "$..a.b", "$.a..b", "$..a..a", "$..*",
		"$..a.*", "$..*.b", "$..missing", "$..b..a",
	} {
		assertAgainstOracle(t, q, doc)
	}
}

func TestWildcardOnObjectsAndArrays(t *testing.T) {
	// Idiomatic wildcard (§1.1): both object fields and array entries.
	assertAgainstOracle(t, "$.*", `{"a": 1, "b": [2], "c": {"d": 3}}`)
	assertAgainstOracle(t, "$.*", `[1, [2], {"d": 3}]`)
	assertAgainstOracle(t, "$.*.*", `[[1, 2], {"a": 3}]`)
}

func TestLeafMatching(t *testing.T) {
	// Leaves in objects (colon events), arrays (comma events), and the
	// first-array-item corner case of §3.4.
	assertAgainstOracle(t, "$.a", `{"a": 42}`)
	assertAgainstOracle(t, "$.a", `{"x": 1, "a": "leaf"}`)
	assertAgainstOracle(t, "$.a.*", `{"a": [1, 2, 3]}`)
	assertAgainstOracle(t, "$.a.*", `{"a": [1]}`)
	assertAgainstOracle(t, "$.a.*", `{"a": []}`)
	assertAgainstOracle(t, "$.a.*", `{"a": {}}`)
	assertAgainstOracle(t, "$.a.*", `{"a": [[1], 2]}`)
	assertAgainstOracle(t, "$.a.*", `{"a": [1, [2]]}`)
	assertAgainstOracle(t, "$.a.*", `{"a": {"b": 1, "c": [2]}}`)
	assertAgainstOracle(t, "$..b", `{"a": {"b": true}}`)
	assertAgainstOracle(t, "$.*", `[null, false, true]`)
}

func TestAtomicAndTrivialRoots(t *testing.T) {
	for _, doc := range []string{`42`, `"str"`, `true`, `null`, `{}`, `[]`} {
		for _, q := range []string{"$", "$.a", "$..a", "$.*", "$..*"} {
			assertAgainstOracle(t, q, doc)
		}
	}
}

func TestStringsWithStructuralChars(t *testing.T) {
	doc := `{"a": "{\"b\": [1,2,{]]}", "b": {"a": ",,::}{"}, "c:{": 3}`
	for _, q := range []string{"$.a", "$.b.a", "$..a", "$.*", `$['c:{']`} {
		assertAgainstOracle(t, q, doc)
	}
}

func TestEscapedKeys(t *testing.T) {
	doc := `{"k\"ey": 1, "plain": {"k\"ey": [2]}, "b\\": 3}`
	assertAgainstOracle(t, `$['k\"ey']`, doc)
	assertAgainstOracle(t, `$..['k\"ey']`, doc)
	assertAgainstOracle(t, `$['b\\\\']`, doc) // label b\\ raw: two backslashes in doc
}

func TestBlockBoundaryStraddling(t *testing.T) {
	pad := strings.Repeat(" ", 57)
	cases := []string{
		`{` + pad + `"a": {"b": 1}}`,
		`{"` + strings.Repeat("k", 70) + `": 1, "a": 2}`,
		`{"a":` + pad + `{"b":` + pad + `1}}`,
		`[` + pad + `1,` + pad + `2]`,
	}
	for _, doc := range cases {
		for _, q := range []string{"$.a", "$.a.b", "$..b", "$.*", "$..a"} {
			assertAgainstOracle(t, q, doc)
		}
	}
}

func TestHeadSkipQueries(t *testing.T) {
	doc := `{"pre": {"x": [{"a": 1}, {"a": {"a": 2}}]},
	        "a": {"deep": {"a": [3, 4]}},
	        "post": [{"b": {"a": "last"}}]}`
	assertAgainstOracle(t, "$..a", doc)
	assertAgainstOracle(t, "$..a..a", doc)
	assertAgainstOracle(t, "$..a.deep", doc)
	assertAgainstOracle(t, "$..b..a", doc)
	assertAgainstOracle(t, "$..deep..a", doc)
}

func TestHeadSkipFalsePositives(t *testing.T) {
	// Occurrences of the sought label inside strings and as values must
	// not fool the seeker.
	doc := `{"s": "\"a\": 1", "t": "a", "u": ["a", "\"a\":"], "a": 7}`
	assertAgainstOracle(t, "$..a", doc)
}

func TestNestedSameLabel(t *testing.T) {
	// A1/A2-style queries: nested identical labels grow the depth-stack.
	doc := `{"inner": {"inner": {"inner": {"type": {"qualType": "int"}}, "type": {"qualType": "long"}}}}`
	assertAgainstOracle(t, "$..inner..inner..type.qualType", doc)
	assertAgainstOracle(t, "$..inner..type.qualType", doc)
	assertAgainstOracle(t, "$..inner.inner", doc)
}

func TestIndexSelectors(t *testing.T) {
	doc := `{"a": [10, [20, 21], {"b": 30}], "c": [[0, 1], [2, 3]]}`
	for _, q := range []string{
		"$.a[0]", "$.a[1]", "$.a[2]", "$.a[3]", "$.a[1][0]", "$.a[2].b",
		"$.c.*[1]", "$..[0]", "$..[1]", "$[0]", "$.a[0].b",
	} {
		assertAgainstOracle(t, q, doc)
	}
}

func TestIndexSelectorsDeep(t *testing.T) {
	assertAgainstOracle(t, "$..b[0]", `{"b": [1, {"b": [2, 3]}]}`)
	assertAgainstOracle(t, "$[0][0][0]", `[[[5]]]`)
	assertAgainstOracle(t, "$[1]", `[{"x":1},{"y":2}]`)
}

func TestDeepDocuments(t *testing.T) {
	depth := 300
	doc := strings.Repeat(`{"a":`, depth) + `1` + strings.Repeat(`}`, depth)
	assertAgainstOracle(t, "$..a.a", doc)
	assertAgainstOracle(t, "$..a", doc)
	doc2 := strings.Repeat(`[`, depth) + `1` + strings.Repeat(`]`, depth)
	assertAgainstOracle(t, "$..*", doc2[:601+0])
}

func TestDepthStackSpill(t *testing.T) {
	// More nested state changes than the inline capacity: $..a.a pushes a
	// frame per level on a 200-deep a-chain.
	depth := 200
	doc := strings.Repeat(`{"a":`, depth) + `{}` + strings.Repeat(`}`, depth)
	assertAgainstOracle(t, "$..a.a", doc)
}

func TestWhitespaceHeavyDocuments(t *testing.T) {
	doc := "\n\t {\n \"a\" :\t[ 1 ,\n 2 , { \"b\" : 3 } ] \n}\t"
	for _, q := range []string{"$.a", "$.a.*", "$..b", "$.*", "$.a.*.b"} {
		assertAgainstOracle(t, q, doc)
	}
}

func TestDuplicateKeysDocumentedBehavior(t *testing.T) {
	// The paper's sibling skip assumes labels do not repeat among siblings
	// (§3.3). With duplicate keys, a unitary match stops at the first
	// occurrence; the oracle sees both. This pins the documented behavior.
	e, err := CompileQuery("$.a.b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Matches([]byte(`{"a": {"b": 1}, "a": {"b": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("unitary skip with duplicate keys: got %v, want exactly the first match", got)
	}
	// Without sibling skipping the engine behaves like the oracle.
	assertAgainstOracle(t, "$..a.b", `{"a": {"b": 1}, "x": {"a": {"b": 2}}}`)
}

func TestMalformedInputs(t *testing.T) {
	e, err := CompileQuery("$.a.b", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"", "   ", `{"a":`, `{"a": {`, `[1, 2`, `{`, `[`} {
		if _, err := e.Matches([]byte(doc)); err == nil {
			t.Errorf("Matches(%q) succeeded, want error", doc)
		}
	}
	// Head-skip engines must also survive truncation.
	h, err := CompileQuery("$..a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{`{"a": {"x": `, `{"a"`, `{"a":`} {
		if _, err := h.Matches([]byte(doc)); err == nil {
			t.Logf("head-skip tolerated truncated %q (allowed: scanning engine)", doc)
		}
	}
}

func TestCountAndRunAgree(t *testing.T) {
	doc := `{"a": [1, 2, {"a": 3}]}`
	e, err := CompileQuery("$..a.*", Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := e.Count([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Matches([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if n != len(m) {
		t.Fatalf("Count=%d, len(Matches)=%d", n, len(m))
	}
}

func TestEngineReuseAcrossDocuments(t *testing.T) {
	e, err := CompileQuery("$..a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{`{"a":1}`, `{"b":{"a":2}}`, `[]`, `{"a":{"a":3}}`}
	wants := []int{1, 1, 0, 2}
	for i, doc := range docs {
		n, err := e.Count([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if n != wants[i] {
			t.Errorf("doc %d: count %d, want %d", i, n, wants[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Randomized differential testing
// ---------------------------------------------------------------------------

// docGen generates random valid JSON without duplicate keys per object.
type docGen struct {
	r    *rand.Rand
	keys []string
	buf  strings.Builder
}

func (g *docGen) ws() {
	for g.r.Intn(4) == 0 {
		g.buf.WriteByte(" \t\n"[g.r.Intn(3)])
	}
}

func (g *docGen) value(depth int) {
	g.ws()
	kind := g.r.Intn(10)
	if depth <= 0 && kind < 5 {
		kind += 5
	}
	switch {
	case kind < 3: // object
		g.buf.WriteByte('{')
		perm := g.r.Perm(len(g.keys))
		n := g.r.Intn(len(g.keys) + 1)
		for i := 0; i < n; i++ {
			if i > 0 {
				g.buf.WriteByte(',')
			}
			g.ws()
			fmt.Fprintf(&g.buf, "%q:", g.keys[perm[i]])
			g.value(depth - 1)
		}
		g.ws()
		g.buf.WriteByte('}')
	case kind < 5: // array
		g.buf.WriteByte('[')
		n := g.r.Intn(4)
		for i := 0; i < n; i++ {
			if i > 0 {
				g.buf.WriteByte(',')
			}
			g.value(depth - 1)
		}
		g.ws()
		g.buf.WriteByte(']')
	case kind < 7: // number
		fmt.Fprintf(&g.buf, "%d", g.r.Intn(1000)-500)
	case kind < 9: // string, sometimes with hostile (pre-escaped) content
		s := []string{`plain`, `{\"a\":1}`, `}]`, `a\"b`, `\\`, `,,::`, `\"a\":`, ``}[g.r.Intn(8)]
		g.buf.WriteString(`"` + s + `"`)
	default:
		g.buf.WriteString([]string{"true", "false", "null"}[g.r.Intn(3)])
	}
	g.ws()
}

func randomQuery(r *rand.Rand, labels []string) string {
	var sb strings.Builder
	sb.WriteString("$")
	steps := 1 + r.Intn(4)
	for i := 0; i < steps; i++ {
		if r.Intn(3) == 0 {
			sb.WriteString("..")
		} else {
			sb.WriteString(".")
		}
		switch r.Intn(5) {
		case 0:
			sb.WriteString("*")
		default:
			sb.WriteString(labels[r.Intn(len(labels))])
		}
	}
	return sb.String()
}

func TestRandomizedDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	keys := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 700; trial++ {
		g := &docGen{r: r, keys: keys}
		g.value(4)
		doc := g.buf.String()
		query := randomQuery(r, keys)
		root, err := dom.Parse([]byte(doc))
		if err != nil {
			t.Fatalf("generator produced invalid JSON %q: %v", doc, err)
		}
		q, err := jsonpath.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		want := dom.MatchOffsets(root, q)
		for name, opts := range allOptionSets {
			got := engineOffsets(t, query, doc, opts)
			if !equalInts(got, want) {
				t.Fatalf("trial %d [%s]: %s on %s\n  engine: %v\n  oracle: %v",
					trial, name, query, doc, got, want)
			}
		}
	}
}

func TestRandomizedIndexDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	keys := []string{"a", "b"}
	for trial := 0; trial < 300; trial++ {
		g := &docGen{r: r, keys: keys}
		g.value(4)
		doc := g.buf.String()
		var sb strings.Builder
		sb.WriteString("$")
		for i, steps := 0, 1+r.Intn(3); i < steps; i++ {
			switch r.Intn(4) {
			case 0:
				sb.WriteString(fmt.Sprintf("[%d]", r.Intn(3)))
			case 1:
				sb.WriteString(fmt.Sprintf("..[%d]", r.Intn(3)))
			case 2:
				sb.WriteString(".*")
			default:
				sb.WriteString("." + keys[r.Intn(len(keys))])
			}
		}
		query := sb.String()
		root := dom.MustParse([]byte(doc))
		want := dom.MatchOffsets(root, jsonpath.MustParse(query))
		for name, opts := range allOptionSets {
			got := engineOffsets(t, query, doc, opts)
			if !equalInts(got, want) {
				t.Fatalf("trial %d [%s]: %s on %s\n  engine: %v\n  oracle: %v",
					trial, name, query, doc, got, want)
			}
		}
	}
}

func TestCompileQueryErrors(t *testing.T) {
	if _, err := CompileQuery("not a query", Options{}); err == nil {
		t.Fatal("bad syntax accepted")
	}
	if _, err := CompileQuery("$..a"+strings.Repeat(".*", 16), Options{}); err != automaton.ErrTooLarge {
		t.Fatalf("blowup query error = %v", err)
	}
}

func TestUnionSelectors(t *testing.T) {
	doc := `{"a": {"x": 1}, "b": [10, 20, 30], "c": 3, "d": {"a": 4, "b": 5}}`
	for _, q := range []string{
		"$['a','b']", "$['a','c']", "$..['a','b']", "$.b[0,2]",
		"$['a','d'].a", "$..['a','x']", "$['b',0]", "$.b[0,1,2]",
	} {
		assertAgainstOracle(t, q, doc)
	}
}

func TestUnionRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	keys := []string{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		g := &docGen{r: r, keys: keys}
		g.value(4)
		doc := g.buf.String()
		var sb strings.Builder
		sb.WriteString("$")
		for i, steps := 0, 1+r.Intn(3); i < steps; i++ {
			if r.Intn(4) == 0 {
				sb.WriteString("..")
			}
			switch r.Intn(3) {
			case 0:
				sb.WriteString(fmt.Sprintf("['%s','%s']",
					keys[r.Intn(len(keys))], keys[r.Intn(len(keys))]))
			case 1:
				sb.WriteString(fmt.Sprintf("['%s',%d]", keys[r.Intn(len(keys))], r.Intn(3)))
			default:
				sb.WriteString(fmt.Sprintf("[%d,%d]", r.Intn(3), r.Intn(3)))
			}
		}
		query := sb.String()
		root := dom.MustParse([]byte(doc))
		want := dom.MatchOffsets(root, jsonpath.MustParse(query))
		for name, opts := range allOptionSets {
			got := engineOffsets(t, query, doc, opts)
			if !equalInts(got, want) {
				t.Fatalf("trial %d [%s]: %s on %s\n  engine: %v\n  oracle: %v",
					trial, name, query, doc, got, want)
			}
		}
	}
}

func TestTailSkipSpecific(t *testing.T) {
	// Focused scenarios for the §4.5 tail-skip extension: waiting states at
	// depth, boundaries crossing blocks, labels inside hostile strings.
	docs := []string{
		`{"a": {"x": {"b": 1}, "b": 2}, "b": 3}`,
		`{"a": [{"b": 1}, {"c": {"b": 2}}], "z": {"b": "x"}}`,
		`{"a": {"s": "\"b\": fake", "deep": {"deep": {"b": [1, 2]}}}}`,
		`{"a": {"b": {"a": {"b": 42}}}}`,
		`{"a": {` + strings.Repeat(`"f": [0], `, 30) + `"b": 9}}`,
	}
	queries := []string{"$.a..b", "$..a..b", "$.a..b..a", "$..a..b.*", "$.*..b"}
	for _, doc := range docs {
		for _, q := range queries {
			assertAgainstOracle(t, q, doc)
		}
	}
}

func TestTailSkipMatchesDefaultOnGenerated(t *testing.T) {
	// Engine with tail-skip must agree with the default engine match for
	// match on sizeable generated data.
	docs := [][]byte{}
	for _, gen := range []string{"ast", "crossref", "twitter_small"} {
		data, err := jsongenGenerate(gen)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
	}
	for _, q := range []string{"$..inner..inner..type.qualType", "$..author..affiliation..name", "$..retweeted_status..hashtags..text"} {
		def, err := CompileQuery(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tail, err := CompileQuery(q, Options{EnableTailSkip: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, data := range docs {
			a, err := def.Matches(data)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tail.Matches(data)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(a, b) {
				t.Fatalf("%s on generated doc %d: default %d matches, tail-skip %d", q, i, len(a), len(b))
			}
		}
	}
}

func TestSliceSelectors(t *testing.T) {
	doc := `{"a": [10, [20, 21], {"b": 30}, 40, 50], "c": [[0, 1, 2], [3, 4, 5]]}`
	for _, q := range []string{
		"$.a[1:3]", "$.a[2:]", "$.a[:2]", "$.a[:]", "$.a[3:100]",
		"$.c.*[1:]", "$..[1:3]", "$[0:]", "$.a[0,3:5]", "$.a[1:2].b",
	} {
		assertAgainstOracle(t, q, doc)
	}
}

// blockCounter is an input that counts the blocks a run loads at or past
// block from.
type blockCounter struct {
	input.Input
	from, loads int
}

func (c *blockCounter) Block(idx int) (*simd.Block, int) {
	if idx >= c.from {
		c.loads++
	}
	return c.Input.Block(idx)
}

// TestIndexSelectorsStopAtLastIndex pins the sibling skip for index and
// slice selectors: once an array's entry counter passes the last selected
// index, the run jumps to the array's closer, so the blocks of the
// remaining entries are never loaded — neither on a cold run nor over
// planes. Without the skip, every entry is visited and depth-skipped,
// which loads at least one block per entry.
func TestIndexSelectorsStopAtLastIndex(t *testing.T) {
	const entries = 10000
	var sb strings.Builder
	sb.WriteString(`{"a": [`)
	for i := 0; i < entries; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `{"b": %d, "pad": "%064d"}`, i, i)
	}
	sb.WriteString(`], "z": 1}`)
	doc := []byte(sb.String())
	planes := classifier.BuildPlanes(doc)
	for _, tc := range []struct {
		query string
		last  int // entries selected: the skip starts after entry last-1
	}{{"$.a[0]", 1}, {"$.a[0:2].b", 2}} {
		e, err := CompileQuery(tc.query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := dom.MatchOffsets(dom.MustParse(doc), jsonpath.MustParse(tc.query))
		// The first block past the last selected entry's closer.
		end := strings.Index(string(doc), fmt.Sprintf(`"%064d"}`, tc.last-1)) + 67
		from := end/simd.BlockSize + 1
		for _, indexed := range []bool{false, true} {
			in := &blockCounter{Input: input.NewBytes(doc), from: from}
			var got []int
			emit := func(pos int) { got = append(got, pos) }
			if indexed {
				err = e.RunPlanes(in, planes, emit)
			} else {
				err = e.RunInput(in, emit)
			}
			if err != nil {
				t.Fatalf("%s (indexed %v): %v", tc.query, indexed, err)
			}
			if !equalInts(got, want) {
				t.Fatalf("%s (indexed %v): %v, oracle %v", tc.query, indexed, got, want)
			}
			if in.loads > 4 {
				t.Errorf("%s (indexed %v): %d blocks loaded past the last selected entry, want O(1)",
					tc.query, indexed, in.loads)
			}
		}
	}
}

func TestRandomizedSliceDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(607))
	keys := []string{"a", "b"}
	for trial := 0; trial < 300; trial++ {
		g := &docGen{r: r, keys: keys}
		g.value(4)
		doc := g.buf.String()
		var sb strings.Builder
		sb.WriteString("$")
		for i, steps := 0, 1+r.Intn(3); i < steps; i++ {
			desc := ""
			if r.Intn(4) == 0 {
				desc = ".."
			}
			switch r.Intn(4) {
			case 0:
				lo := r.Intn(3)
				sb.WriteString(fmt.Sprintf("%s[%d:%d]", desc, lo, lo+1+r.Intn(3)))
			case 1:
				sb.WriteString(fmt.Sprintf("%s[%d:]", desc, r.Intn(3)))
			case 2:
				sb.WriteString(fmt.Sprintf("%s[:%d]", desc, 1+r.Intn(3)))
			default:
				if desc == "" {
					desc = "."
				}
				sb.WriteString(desc + keys[r.Intn(len(keys))])
			}
		}
		query := sb.String()
		root := dom.MustParse([]byte(doc))
		want := dom.MatchOffsets(root, jsonpath.MustParse(query))
		for name, opts := range allOptionSets {
			got := engineOffsets(t, query, doc, opts)
			if !equalInts(got, want) {
				t.Fatalf("trial %d [%s]: %s on %s\n  engine: %v\n  oracle: %v",
					trial, name, query, doc, got, want)
			}
		}
	}
}

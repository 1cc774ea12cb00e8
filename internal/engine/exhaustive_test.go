package engine

import (
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/dom"
	"rsonpath/internal/jsonpath"
	"rsonpath/internal/surfer"
)

// TestBoundedExhaustiveDifferential enumerates every document over a tiny
// JSON grammar up to a size bound and checks every query up to three
// selectors against the oracle, under the default and the fully-disabled
// option sets. Bounded-exhaustive testing catches corner cases random
// generation misses (empty containers in every position, single-child
// chains, leaves at every boundary).
func TestBoundedExhaustiveDifferential(t *testing.T) {
	var docs []string
	// Grammar: v ::= 1 | {} | [] | {"a": v} | {"b": v} | {"a": v, "b": v} | [v] | [v, v]
	var build func(depth int) []string
	build = func(depth int) []string {
		out := []string{`1`, `{}`, `[]`}
		if depth == 0 {
			return out
		}
		subs := build(depth - 1)
		for _, s := range subs {
			out = append(out, `{"a":`+s+`}`, `{"b":`+s+`}`, `[`+s+`]`)
		}
		// A couple of two-child combinations per level to bound the blowup.
		for i, s1 := range subs {
			if i >= 3 {
				break
			}
			for j, s2 := range subs {
				if j >= 3 {
					break
				}
				out = append(out, `{"a":`+s1+`,"b":`+s2+`}`, `[`+s1+`,`+s2+`]`)
			}
		}
		return out
	}
	docs = build(2)

	var queries []string
	// [0:1] is bounded, so its arrays stop after entry 0; [1:] is open and
	// must not stop.
	atoms := []string{".a", ".b", ".*", "..a", "..b", "..*", "[0]", "[1]", "[0:1]", "[1:]"}
	for _, a := range atoms {
		queries = append(queries, "$"+a)
		for _, b := range atoms {
			queries = append(queries, "$"+a+b)
		}
	}
	for _, q3 := range []string{"$..a.b..a", "$.a..b.*", "$..*.a", "$.*.*.*", "$..a[0]", "$[0]..b"} {
		queries = append(queries, q3)
	}

	optionSets := []Options{
		{},
		{EnableTailSkip: true},
		{DisableHeadSkip: true, DisableSkipChildren: true, DisableSkipSiblings: true, DisableSkipLeaves: true},
	}

	engines := map[string][]*Engine{}
	for _, query := range queries {
		for _, opts := range optionSets {
			e, err := CompileQuery(query, opts)
			if err != nil {
				t.Fatalf("compile %q: %v", query, err)
			}
			engines[query] = append(engines[query], e)
		}
	}

	checked := 0
	for _, doc := range docs {
		root := dom.MustParse([]byte(doc))
		for _, query := range queries {
			want := dom.MatchOffsets(root, jsonpath.MustParse(query))
			for i, e := range engines[query] {
				got, err := e.Matches([]byte(doc))
				if err != nil {
					t.Fatalf("%s on %s (option set %d): %v", query, doc, i, err)
				}
				if !equalInts(got, want) {
					t.Fatalf("%s on %s (option set %d):\n  engine: %v\n  oracle: %v",
						query, doc, i, got, want)
				}
				checked++
			}
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d combinations checked; exhaustive grid too small", checked)
	}
}

// TestMutationNoPanic mutates valid documents byte-wise and asserts that
// every engine either errors or returns cleanly — never panics and never
// loops forever (bounded by the test timeout).
func TestMutationNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	base := `{"a": [1, {"b": "x\"y"}, [2, 3]], "c": {"a": null}, "d": "end"}`
	queries := []string{"$..a", "$.a.*", "$.c.a", "$..b", "$.*", "$[0]", "$..a..b"}
	var compiled []*Engine
	for _, q := range queries {
		for _, opts := range []Options{{}, {EnableTailSkip: true}} {
			e, err := CompileQuery(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			compiled = append(compiled, e)
		}
	}
	sEngine, err := surfer.CompileQuery("$..a")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 2000; trial++ {
		doc := []byte(base)
		for k, muts := 0, 1+r.Intn(4); k < muts; k++ {
			switch r.Intn(3) {
			case 0: // overwrite
				doc[r.Intn(len(doc))] = byte(r.Intn(128))
			case 1: // truncate
				doc = doc[:r.Intn(len(doc))+1]
			default: // swap
				i, j := r.Intn(len(doc)), r.Intn(len(doc))
				doc[i], doc[j] = doc[j], doc[i]
			}
			if len(doc) == 0 {
				break
			}
		}
		for _, e := range compiled {
			_, _ = e.Matches(doc) // must not panic
		}
		_, _ = sEngine.Matches(doc)
	}
}

// TestDeeplyNestedTailSkip drives the tail-skip across deep, block-crossing
// structures.
func TestDeeplyNestedTailSkip(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"a": `)
	depth := 80
	for i := 0; i < depth; i++ {
		b.WriteString(`{"filler`)
		b.WriteString(strings.Repeat("x", i%7))
		b.WriteString(`": [0], "n": `)
	}
	b.WriteString(`{"b": 7}`)
	b.WriteString(strings.Repeat("}", depth))
	b.WriteString(`}`)
	assertAgainstOracle(t, "$.a..b", b.String())
	assertAgainstOracle(t, "$..a..b", b.String())
	assertAgainstOracle(t, "$..n..b", b.String())
}

// TestStacklessAgainstEngine checks the depth-register simulation against
// the depth-stack engine (and thus, transitively, the DOM oracle) on
// descendant-only chains.
func TestStacklessAgainstEngine(t *testing.T) {
	docs := []string{
		`{"a": 1}`,
		`{"a": {"a": {"b": 2}}, "b": 3}`,
		`{"x": [{"a": {"y": {"b": 1}}}, {"b": 0}], "a": {"b": [1, 2]}}`,
		`{"a": {"b": {"a": {"b": "deep"}}}}`,
		`[{"a": 1}, {"a": {"a": 2}}]`,
		`{"a": "leaf", "nest": {"a": {"c": {"a": 9}}}}`,
	}
	queries := []string{"$..a", "$..b", "$..a..b", "$..a..a", "$..a..b..a"}
	for _, query := range queries {
		q := jsonpath.MustParse(query)
		sl, err := NewStackless(q)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		ref, err := CompileQuery(query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range docs {
			want, err := ref.Matches([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sl.Matches([]byte(doc))
			if err != nil {
				t.Fatalf("%s on %s: %v", query, doc, err)
			}
			if !equalInts(got, want) {
				t.Fatalf("%s on %s:\n  stackless: %v\n  engine:    %v", query, doc, got, want)
			}
		}
	}
}

func TestStacklessRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	keys := []string{"a", "b", "c"}
	for trial := 0; trial < 400; trial++ {
		g := &docGen{r: r, keys: keys}
		g.value(4)
		doc := g.buf.String()
		var sb strings.Builder
		sb.WriteString("$")
		for i, steps := 0, 1+r.Intn(3); i < steps; i++ {
			sb.WriteString(".." + keys[r.Intn(len(keys))])
		}
		query := sb.String()
		sl, err := NewStackless(jsonpath.MustParse(query))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := CompileQuery(query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Matches([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sl.Matches([]byte(doc))
		if err != nil {
			t.Fatalf("trial %d: %s on %s: %v", trial, query, doc, err)
		}
		if !equalInts(got, want) {
			t.Fatalf("trial %d: %s on %s:\n  stackless: %v\n  engine:    %v",
				trial, query, doc, got, want)
		}
	}
}

func TestStacklessRejectsOutsideFragment(t *testing.T) {
	for _, query := range []string{"$", "$.a", "$..a.b", "$..*", "$..a[0]", "$.a..b", "$..['a','b']"} {
		if _, err := NewStackless(jsonpath.MustParse(query)); err != ErrNotStackless {
			t.Errorf("%s: err = %v, want ErrNotStackless", query, err)
		}
	}
}

func TestStacklessScalarAndMalformed(t *testing.T) {
	sl, err := NewStackless(jsonpath.MustParse("$..a"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sl.Count([]byte(`42`)); err != nil || n != 0 {
		t.Fatalf("scalar root: n=%d err=%v", n, err)
	}
	for _, doc := range []string{``, `{`, `{"a": {`} {
		if _, err := sl.Count([]byte(doc)); err == nil {
			t.Errorf("Count(%q) succeeded", doc)
		}
	}
}

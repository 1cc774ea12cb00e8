package rsonpath

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rsonpath/internal/engine"
	"rsonpath/internal/ski"
)

const sampleDoc = `{
  "store": {
    "book": [
      {"title": "Sayings", "price": 8.95, "author": {"name": "N"}},
      {"title": "Moby Dick", "price": 8.99}
    ],
    "bicycle": {"price": 19.95}
  },
  "price": 0
}`

func TestCompileAndCount(t *testing.T) {
	q, err := Compile("$..price")
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Count([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("Count = %d, want 4", n)
	}
}

func TestMatchValues(t *testing.T) {
	q := MustCompile("$.store.book.*.title")
	vals, err := q.MatchValues([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || string(vals[0]) != `"Sayings"` || string(vals[1]) != `"Moby Dick"` {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchValuesComposite(t *testing.T) {
	q := MustCompile("$.store.bicycle")
	vals, err := q.MatchValues([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || string(vals[0]) != `{"price": 19.95}` {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchValuesTruncatedShortCircuits(t *testing.T) {
	// The matched value `[1}` never closes its bracket, so extraction fails
	// at the wrong-kind closer; the run must be abandoned there instead of
	// scanning on to the document's own malformed end (which would mask the
	// extraction error with the engine's).
	doc := []byte(`{"a": [1}`)
	vals, err := MustCompile("$.a").MatchValues(doc)
	var me *MalformedError
	if !errors.As(err, &me) || me.Offset != 8 || me.Kind != "mismatched closer" {
		t.Fatalf("err = %v, want a mismatched closer at offset 8", err)
	}
	if len(vals) != 0 {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchValuesTruncatedKeepsEarlierValues(t *testing.T) {
	// The first match extracts fine; the second is truncated. The values
	// collected before the failure are returned with the error.
	doc := []byte(`{"a": 1, "b": {"a": [2`)
	vals, err := MustCompile("$..a").MatchValues(doc)
	var me *MalformedError
	if !errors.As(err, &me) || me.Offset != len(doc) || me.Kind != "unterminated value" {
		t.Fatalf("err = %v, want an unterminated value at offset %d", err, len(doc))
	}
	if len(vals) != 1 || string(vals[0]) != "1" {
		t.Fatalf("values = %q", vals)
	}
}

func TestMatchOffsetsOrdered(t *testing.T) {
	q := MustCompile("$..price")
	offs, err := q.MatchOffsets([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Fatalf("offsets not increasing: %v", offs)
		}
	}
}

func TestEnginesAgree(t *testing.T) {
	doc := []byte(sampleDoc)
	for _, query := range []string{"$.store.book.*.price", "$.store.book.*.title"} {
		want, err := MustCompile(query, WithEngine(EngineDOM)).MatchOffsets(doc)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := ski.CompileQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]runner{"rsonpath": MustCompile(query), "ski": sk} {
			got, err := runOffsets(r, doc)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, query, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s on %s: %v, DOM %v", name, query, got, want)
			}
		}
	}
}

func TestSkiRejectsDescendants(t *testing.T) {
	if _, err := ski.CompileQuery("$..a"); !errors.Is(err, ski.ErrUnsupported) {
		t.Fatalf("err = %v, want ski.ErrUnsupported", err)
	}
}

// TestStacklessRejectionNamesItsFragment: a query outside the
// depth-register fragment fails with ErrUnsupportedQuery, and the message
// names the fragment the stackless engine does support.
func TestStacklessRejectionNamesItsFragment(t *testing.T) {
	_, err := Compile("$.a..b", WithEngine(EngineStackless))
	if !errors.Is(err, ErrUnsupportedQuery) || !errors.Is(err, engine.ErrNotStackless) {
		t.Fatalf("err = %v, want ErrUnsupportedQuery wrapping engine.ErrNotStackless", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "descendant-only label chain") || strings.Contains(msg, "JSONSki") {
		t.Fatalf("err = %q, want the descendant-only chain named and no JSONSki", msg)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("store.book"); err == nil {
		t.Fatal("missing $ accepted")
	}
	if _, err := Compile("$..a" + strings.Repeat(".*", 16)); err == nil {
		t.Fatal("blowup query accepted")
	}
}

func TestQueryAccessors(t *testing.T) {
	q := MustCompile("$['store'].book", WithEngine(EngineDOM))
	if q.Source() != "$['store'].book" {
		t.Error("Source mismatch")
	}
	if q.String() != "$.store.book" {
		t.Errorf("String = %q", q.String())
	}
	if q.Engine() != EngineDOM {
		t.Error("Engine mismatch")
	}
	if EngineRsonpath.String() != "rsonpath" || EngineDOM.String() != "dom" ||
		EngineStackless.String() != "stackless" || EngineKind(9).String() != "EngineKind(9)" {
		t.Error("EngineKind.String wrong")
	}
	if _, err := Compile("$.a", WithEngine(EngineKind(9))); err == nil {
		t.Error("an unknown engine kind compiled")
	}
}

func TestCountReader(t *testing.T) {
	q := MustCompile("$..title")
	n, err := q.CountReader(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("CountReader = %d, want 2", n)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	MustCompile("bogus")
}

func TestValueAt(t *testing.T) {
	doc := []byte(`{"a": [1, "s\"x", {"b": 2}], "n": -1.5e3, "t": true}`)
	cases := []struct {
		pos  int
		want string
	}{
		{0, string(doc)},
		{6, `[1, "s\"x", {"b": 2}]`},
		{7, "1"},
		{10, `"s\"x"`},
		{18, `{"b": 2}`},
	}
	for _, c := range cases {
		got, err := ValueAt(doc, c.pos)
		if err != nil {
			t.Fatalf("ValueAt(%d): %v", c.pos, err)
		}
		if string(got) != c.want {
			t.Fatalf("ValueAt(%d) = %q, want %q", c.pos, got, c.want)
		}
	}
}

func TestValueAtErrors(t *testing.T) {
	if _, err := ValueAt([]byte(`{}`), 5); err == nil {
		t.Error("out of range accepted")
	}
	if _, err := ValueAt([]byte(`{"a":`), 0); err == nil {
		t.Error("truncated object accepted")
	}
	if _, err := ValueAt([]byte(`"unterminated`), 0); err == nil {
		t.Error("truncated string accepted")
	}
	if v, err := ValueAt([]byte(`12345`), 0); err != nil || string(v) != "12345" {
		t.Errorf("scalar at EOF: %q, %v", v, err)
	}
}

func TestConcurrentUse(t *testing.T) {
	// Compiled queries must be safe for concurrent use: each Run carries
	// its own state.
	q := MustCompile("$..price")
	data := []byte(sampleDoc)
	done := make(chan int, 16)
	for i := 0; i < 16; i++ {
		go func() {
			total := 0
			for j := 0; j < 50; j++ {
				n, err := q.Count(data)
				if err != nil {
					total = -1
					break
				}
				total += n
			}
			done <- total
		}()
	}
	for i := 0; i < 16; i++ {
		if got := <-done; got != 50*4 {
			t.Fatalf("concurrent run returned %d, want %d", got, 200)
		}
	}
}

func TestTailSkipOption(t *testing.T) {
	q, err := engine.CompileQuery("$.store..price", engine.Options{EnableTailSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	n, err := q.Count([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Count = %d, want 3", n)
	}
}

func TestUnionQueries(t *testing.T) {
	q := MustCompile("$.store.book.*['title','price']")
	n, err := q.Count([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("Count = %d, want 4", n)
	}
}

func TestUTF8LabelsAndValues(t *testing.T) {
	doc := `{"日本語": {"ключ": [1, 2]}, "emoji🎉": "värde", "x": {"日本語": 3}}`
	for _, c := range []struct {
		query string
		want  int
	}{
		{"$.日本語.ключ.*", 2},
		{"$..日本語", 2},
		{"$['emoji🎉']", 1},
		{"$..ключ", 1},
	} {
		for _, kind := range []EngineKind{EngineRsonpath, EngineDOM} {
			q := MustCompile(c.query, WithEngine(kind))
			n, err := q.Count([]byte(doc))
			if err != nil {
				t.Fatalf("%s (%v): %v", c.query, kind, err)
			}
			if n != c.want {
				t.Fatalf("%s (%v): %d matches, want %d", c.query, kind, n, c.want)
			}
		}
	}
}

func TestEngineDOM(t *testing.T) {
	doc := []byte(`{"person": {"name": "A", "person": {"name": "B"}}}`)
	node := MustCompile("$..person..name", WithEngine(EngineDOM))
	n, err := node.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("node semantics count = %d, want 2", n)
	}
	path := MustCompile("$..person..name", WithEngine(EngineDOM), WithSemantics(PathSemantics))
	n, err = path.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // "B" reachable through both person matches
		t.Fatalf("path semantics count = %d, want 3", n)
	}
	if EngineDOM.String() != "dom" {
		t.Error("EngineDOM name")
	}
	// DOM engine validates strictly.
	if _, err := node.Count([]byte(`{"a":`)); err == nil {
		t.Error("malformed input accepted by DOM engine")
	}
}

func TestPathSemanticsRequiresDOM(t *testing.T) {
	if _, err := Compile("$..a", WithSemantics(PathSemantics)); err == nil {
		t.Fatal("path semantics accepted on streaming engine")
	}
	if _, err := Compile("$..a", WithSemantics(NodeSemantics)); err != nil {
		t.Fatal(err)
	}
}

func TestAllEnginesAgreeOnNodeSemantics(t *testing.T) {
	doc := []byte(sampleDoc)
	want, err := MustCompile("$.store.book.*.price", WithEngine(EngineDOM)).MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []EngineKind{EngineRsonpath, EngineStackless} {
		query := "$.store.book.*.price"
		if kind == EngineStackless {
			query = "$..book..price" // its fragment; the same nodes here
		}
		got, err := MustCompile(query, WithEngine(kind)).MatchOffsets(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v disagrees with DOM: %v vs %v", kind, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v disagrees with DOM: %v vs %v", kind, got, want)
			}
		}
	}
}

func TestEngineStackless(t *testing.T) {
	doc := []byte(`{"a": {"x": {"b": 1}}, "b": 2}`)
	q := MustCompile("$..a..b", WithEngine(EngineStackless))
	n, err := q.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count %d, want 1", n)
	}
	if EngineStackless.String() != "stackless" {
		t.Error("EngineStackless name")
	}
	if _, err := Compile("$.a..b", WithEngine(EngineStackless)); !errors.Is(err, ErrUnsupportedQuery) {
		t.Fatalf("mixed query err = %v, want ErrUnsupportedQuery", err)
	}
}

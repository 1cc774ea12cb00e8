package ski

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rsonpath/internal/dom"
	"rsonpath/internal/errs"
	"rsonpath/internal/jsonpath"
)

// skiOracle evaluates a query over the DOM with JSONSki's restricted
// wildcard semantics (array entries only) — the oracle for this baseline.
func skiOracle(root *dom.Node, q *jsonpath.Query) []int {
	current := []*dom.Node{root}
	for si := range q.Selectors {
		sel := &q.Selectors[si]
		var next []*dom.Node
		for _, n := range current {
			if sel.Wildcard {
				next = append(next, n.Elems...)
				continue
			}
			for i := range n.Members {
				if string(n.Members[i].Key) == string(sel.Labels[0]) {
					next = append(next, n.Members[i].Value)
					// JSONSki assumes unique sibling keys: first wins.
					break
				}
			}
		}
		current = next
	}
	out := make([]int, len(current))
	for i, n := range current {
		out[i] = n.Start
	}
	return out
}

func assertSkiOracle(t *testing.T, query, doc string) {
	t.Helper()
	root, err := dom.Parse([]byte(doc))
	if err != nil {
		t.Fatalf("oracle rejects %q: %v", doc, err)
	}
	want := skiOracle(root, jsonpath.MustParse(query))
	e, err := CompileQuery(query)
	if err != nil {
		t.Fatalf("CompileQuery(%q): %v", query, err)
	}
	got, err := e.Matches([]byte(doc))
	if err != nil {
		t.Fatalf("Matches(%q, %q): %v", query, doc, err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s on %s:\n  ski:    %v\n  oracle: %v", query, doc, got, want)
	}
}

func TestSkiBasics(t *testing.T) {
	doc := `{"products": [{"id": 1, "chapters": [10, 20]}, {"id": 2}], "n": 3}`
	for _, q := range []string{
		"$", "$.products", "$.products.*", "$.products.*.id",
		"$.products.*.chapters.*", "$.n", "$.missing", "$.products.*.missing",
	} {
		assertSkiOracle(t, q, doc)
	}
}

func TestSkiWildcardSkipsObjects(t *testing.T) {
	// JSONSki's wildcard does not step into object fields (§1.1).
	doc := `{"a": {"x": 1, "y": 2}, "b": [3, 4]}`
	assertSkiOracle(t, "$.a.*", doc) // nothing: object under wildcard
	assertSkiOracle(t, "$.b.*", doc) // 3, 4
	assertSkiOracle(t, "$.*", doc)   // nothing: root is an object
}

func TestSkiRejectsDescendantsAndIndexes(t *testing.T) {
	for _, q := range []string{"$..a", "$.a..b", "$[0]", "$.a[1]"} {
		if _, err := CompileQuery(q); err != ErrUnsupported {
			t.Errorf("CompileQuery(%q) err = %v, want ErrUnsupported", q, err)
		}
	}
	if _, err := CompileQuery("$$$"); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestSkiLabelIntoArrayAndScalars(t *testing.T) {
	doc := `{"a": [1, 2], "b": 3, "c": "str"}`
	assertSkiOracle(t, "$.a.x", doc)
	assertSkiOracle(t, "$.b.x", doc)
	assertSkiOracle(t, "$.c.x", doc)
}

func TestSkiSkipsHostileStrings(t *testing.T) {
	doc := `{"skip": "{\"a\": [}]", "a": {"hit": "}"}, "z": ["[", "]"]}`
	assertSkiOracle(t, "$.a.hit", doc)
	assertSkiOracle(t, "$.z.*", doc)
}

func TestSkiNestedWildcards(t *testing.T) {
	doc := `[[1, [2, 3]], [{"a": 4}], []]`
	assertSkiOracle(t, "$.*", doc)
	assertSkiOracle(t, "$.*.*", doc)
	assertSkiOracle(t, "$.*.*.*", doc)
}

func TestSkiSiblingSkipAfterMatch(t *testing.T) {
	// After the first "a" matches, remaining members are fast-forwarded.
	// With duplicate keys, only the first occurrence is seen (documented
	// JSONSki assumption, shared with the main engine's unitary skip).
	e, err := CompileQuery("$.a")
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Matches([]byte(`{"a": 1, "a": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("matches %v, want one", got)
	}
}

func TestSkiMalformed(t *testing.T) {
	e, err := CompileQuery("$.a.b")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{``, `{`, `{"a": {`, `{"a"`, `{"a": "unterminated`} {
		if _, err := e.Matches([]byte(doc)); err == nil {
			t.Errorf("Matches(%q) succeeded, want error", doc)
		}
	}
}

func TestSkiRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	keys := []string{"a", "b", "c"}
	for trial := 0; trial < 400; trial++ {
		doc := randomDoc(r, keys, 4)
		root, err := dom.Parse([]byte(doc))
		if err != nil {
			t.Fatalf("bad generated doc %q: %v", doc, err)
		}
		var sb strings.Builder
		sb.WriteString("$")
		for i, steps := 0, 1+r.Intn(4); i < steps; i++ {
			if r.Intn(4) == 0 {
				sb.WriteString(".*")
			} else {
				sb.WriteString("." + keys[r.Intn(len(keys))])
			}
		}
		query := sb.String()
		want := skiOracle(root, jsonpath.MustParse(query))
		e, err := CompileQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Matches([]byte(doc))
		if err != nil {
			t.Fatalf("trial %d: %s on %s: %v", trial, query, doc, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s on %s\n  ski:    %v\n  oracle: %v", trial, query, doc, got, want)
		}
	}
}

// randomDoc generates valid JSON with unique keys per object.
func randomDoc(r *rand.Rand, keys []string, depth int) string {
	var b strings.Builder
	var gen func(d int)
	gen = func(d int) {
		kind := r.Intn(8)
		if d <= 0 && kind < 4 {
			kind += 4
		}
		switch {
		case kind < 2:
			b.WriteByte('{')
			perm := r.Perm(len(keys))
			n := r.Intn(len(keys) + 1)
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%q:", keys[perm[i]])
				gen(d - 1)
			}
			b.WriteByte('}')
		case kind < 4:
			b.WriteByte('[')
			n := r.Intn(4)
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteByte(',')
				}
				gen(d - 1)
			}
			b.WriteByte(']')
		case kind < 6:
			fmt.Fprintf(&b, "%d", r.Intn(200)-100)
		case kind < 7:
			b.WriteString(`"s{r\"i]ng,"`)
		default:
			b.WriteString("true")
		}
	}
	gen(depth)
	return b.String()
}

// TestSkiDeepNesting: the baseline has no depth limit, since its memory is
// bounded by the query, not the document. A megabyte of '[' must still end
// in an error, not a crash.
func TestSkiDeepNesting(t *testing.T) {
	e, err := CompileQuery("$.a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Matches(bytes.Repeat([]byte("["), 1<<20)); err == nil {
		t.Fatal("accepted a megabyte of '['")
	} else if errors.Is(err, errs.ErrLimit) {
		t.Fatalf("hit a depth limit it has none of: %v", err)
	}
}

package engine

import (
	"errors"
	"fmt"
	"testing"

	"rsonpath/internal/automaton"
	"rsonpath/internal/jsongen"
	"rsonpath/internal/jsonpath"
)

func compileSet(t *testing.T, queries []string) *Set {
	t.Helper()
	dfas := make([]*automaton.DFA, len(queries))
	for i, src := range queries {
		q, err := jsonpath.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		dfas[i], err = automaton.Compile(q, automaton.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", src, err)
		}
	}
	return NewSet(dfas, 0, 0)
}

func runSet(t *testing.T, s *Set, data []byte) [][]int {
	t.Helper()
	out := make([][]int, s.Len())
	if err := s.Run(data, func(q, pos int) { out[q] = append(out[q], pos) }); err != nil {
		t.Fatalf("set run: %v", err)
	}
	return out
}

// TestSetDifferentialAgainstEngine runs query sets over the synthetic
// benchmark documents and requires byte-identical per-query match offsets
// between the shared pass and N independent engine runs.
func TestSetDifferentialAgainstEngine(t *testing.T) {
	cases := []struct {
		dataset string
		queries []string
	}{
		{"crossref", []string{
			"$..DOI",
			"$..author..affiliation..name",
			"$..title",
			"$..author..ORCID",
			"$.items.*.reference.*.key",
			"$..издатель", // absent label: stays rejecting everywhere
		}},
		{"ast", []string{
			"$..decl.name",
			"$..inner..inner..type.qualType",
			"$..inner..type.qualType",
		}},
		{"twitter_small", []string{
			"$.search_metadata.count",
			"$..count",
			"$..hashtags..text",
			"$.statuses[0].id",
			"$.statuses[2:5].text",
		}},
		{"bestbuy", []string{
			"$.products.*.categoryPath.*.id",
			"$..videoChapters..chapter",
			"$.products[0].sku",
		}},
	}
	for _, c := range cases {
		t.Run(c.dataset, func(t *testing.T) {
			data, err := jsongen.Generate(c.dataset, 128*1024, 11)
			if err != nil {
				t.Fatal(err)
			}
			set := compileSet(t, c.queries)
			got := runSet(t, set, data)
			for i, src := range c.queries {
				e, err := CompileQuery(src, Options{})
				if err != nil {
					t.Fatalf("engine compile %s: %v", src, err)
				}
				want, err := e.Matches(data)
				if err != nil {
					t.Fatalf("engine run %s: %v", src, err)
				}
				if fmt.Sprint(got[i]) != fmt.Sprint(want) {
					t.Errorf("%s: set %v, engine %v", src, len(got[i]), len(want))
				}
			}
		})
	}
}

func TestSetEmptyAndAtomicDocuments(t *testing.T) {
	set := compileSet(t, []string{"$.a", "$..b"})
	for _, doc := range []string{"", "   ", "\n\t"} {
		n := 0
		if err := set.Run([]byte(doc), func(int, int) { n++ }); err != nil {
			t.Errorf("doc %q: %v", doc, err)
		}
		if n != 0 {
			t.Errorf("doc %q: %d matches", doc, n)
		}
	}
	// Atomic root: only $ matches.
	rootSet := compileSet(t, []string{"$", "$.a"})
	got := runSet(t, rootSet, []byte(`  42`))
	if fmt.Sprint(got) != "[[2] []]" {
		t.Errorf("atomic root: %v", got)
	}
}

func TestSetEmptyRuns(t *testing.T) {
	set := NewSet(nil, 0, 0)
	if err := set.Run([]byte(`{"a": 1}`), func(int, int) {
		t.Fatal("emit on empty set")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSetDocumentOrderAcrossQueries(t *testing.T) {
	set := compileSet(t, []string{"$..b", "$..a"})
	doc := []byte(`{"a": 1, "b": {"a": 2}}`)
	var trace []string
	if err := set.Run(doc, func(q, pos int) {
		trace = append(trace, fmt.Sprintf("%d@%d", q, pos))
	}); err != nil {
		t.Fatal(err)
	}
	// "a":1 at 6, "b":{...} at 14, inner "a":2 at 20.
	want := "[1@6 0@14 1@20]"
	if fmt.Sprint(trace) != want {
		t.Errorf("trace %v, want %v", trace, want)
	}
}

func TestSetMalformedInput(t *testing.T) {
	set := compileSet(t, []string{"$.a.b", "$..c"})
	for _, doc := range []string{`{"a": {`, `{"a": [1, 2`, `[`} {
		err := set.Run([]byte(doc), func(int, int) {})
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("doc %q: error %v, want ErrMalformed", doc, err)
		}
	}
}

package rsonpath

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rsonpath/internal/classifier"
	"rsonpath/internal/faultreader"
	"rsonpath/internal/input"
)

// corpusQueriesAndDocs collects the distinct queries and documents of the
// full compliance corpus (base and slice cases).
func corpusQueriesAndDocs() (queries []string, docs []string) {
	seenQ := map[string]bool{}
	seenD := map[string]bool{}
	for _, cases := range [][]complianceCase{complianceCases, sliceComplianceCases} {
		for _, c := range cases {
			if !seenQ[c.query] {
				seenQ[c.query] = true
				queries = append(queries, c.query)
			}
			if !seenD[c.doc] {
				seenD[c.doc] = true
				docs = append(docs, c.doc)
			}
		}
	}
	return queries, docs
}

// TestQuerySetDifferentialCompliance runs the whole compliance corpus's
// query set in one pass over every corpus document and requires
// byte-identical per-query match offsets against individual runs on both
// the accelerated engine and the DOM oracle.
func TestQuerySetDifferentialCompliance(t *testing.T) {
	queries, docs := corpusQueriesAndDocs()
	set, err := CompileSet(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		data := []byte(doc)
		got, err := set.MatchOffsets(data)
		if err != nil {
			t.Fatalf("set run on %s: %v", doc, err)
		}
		for i, src := range queries {
			for _, kind := range []EngineKind{EngineRsonpath, EngineDOM} {
				q, err := Compile(src, WithEngine(kind))
				if err != nil {
					t.Fatalf("[%v] compile %s: %v", kind, src, err)
				}
				want, err := q.MatchOffsets(data)
				if err != nil {
					t.Fatalf("[%v] %s on %s: %v", kind, src, doc, err)
				}
				if fmt.Sprint(got[i]) != fmt.Sprint(want) {
					t.Errorf("[%v] %s on %s:\n  set        %v\n  individual %v",
						kind, src, doc, got[i], want)
				}
			}
		}
	}
}

// TestQuerySetOneClassificationPass asserts the core property of the
// subsystem: however many queries the set holds, Run classifies the
// document exactly once, where N independent runs classify it N times.
func TestQuerySetOneClassificationPass(t *testing.T) {
	queries := []string{"$..a", "$.b.*", "$..c..d", "$.b[0]"}
	doc := []byte(`{"a": [1, {"c": {"d": 2}}], "b": [3, {"a": 4}], "c": {"d": 5}}`)

	set := MustCompileSet(queries)
	before := classifier.Passes()
	if _, err := set.Counts(doc); err != nil {
		t.Fatal(err)
	}
	if got := classifier.Passes() - before; got != 1 {
		t.Errorf("QuerySet.Run: %d classification passes, want 1", got)
	}

	before = classifier.Passes()
	for _, src := range queries {
		if _, err := MustCompile(src).Count(doc); err != nil {
			t.Fatal(err)
		}
	}
	if got := classifier.Passes() - before; got != int64(len(queries)) {
		t.Errorf("independent runs: %d classification passes, want %d", got, len(queries))
	}
}

func TestQuerySetAPI(t *testing.T) {
	doc := []byte(`{"a": 1, "b": {"a": 2}}`)
	set := MustCompileSet([]string{"$..a", "$.b"})
	if set.Len() != 2 {
		t.Fatalf("Len = %d", set.Len())
	}
	if set.Source(0) != "$..a" || set.Source(1) != "$.b" {
		t.Fatalf("sources %q %q", set.Source(0), set.Source(1))
	}
	counts, err := set.Counts(doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(counts) != "[2 1]" {
		t.Fatalf("counts %v", counts)
	}

	// Duplicate queries are independent set members.
	dup := MustCompileSet([]string{"$..a", "$..a"})
	offs, err := dup.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(offs[0]) != fmt.Sprint(offs[1]) {
		t.Fatalf("duplicate queries disagree: %v", offs)
	}

	// Empty and whitespace-only documents: zero matches, nil error.
	for _, empty := range []string{"", "   ", "\n\t"} {
		counts, err := set.Counts([]byte(empty))
		if err != nil {
			t.Errorf("doc %q: %v", empty, err)
		}
		if fmt.Sprint(counts) != "[0 0]" {
			t.Errorf("doc %q: counts %v", empty, counts)
		}
	}

	// Empty set.
	none := MustCompileSet(nil)
	if counts, err := none.Counts(doc); err != nil || len(counts) != 0 {
		t.Fatalf("empty set: %v %v", counts, err)
	}
}

func TestQuerySetCompileErrors(t *testing.T) {
	if _, err := CompileSet([]string{"$..a", "not a query"}); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := CompileSet([]string{"$.a"}, WithEngine(EngineDOM)); err == nil {
		t.Error("non-default engine accepted")
	}
	if _, err := CompileSet([]string{"$.a"}, WithSemantics(PathSemantics)); err == nil {
		t.Error("path semantics accepted")
	}
}

// FuzzQuerySetAgainstQueries feeds arbitrary bytes to fixed query sets that
// mix head-skip, child, wildcard, index/slice and absent-label members. On
// valid JSON every run of the set — in memory, indexed, and streamed
// through a 64-byte window from a one-byte reader — must report exactly the
// members' own matches, merged by (offset, query index); the streamed run
// may instead fail with *input.Error, the window defeat a tiny window
// sanctions. On malformed input every run must return cleanly.
func FuzzQuerySetAgainstQueries(f *testing.F) {
	for _, s := range []string{
		`{"a": 1}`,
		`{"a": {"b": [1, {"a": 2}]}, "b": "x\"y"}`,
		`[[], {}, [{"a": []}]]`,
		`{"a": "{\"a\": 1}"}`,
		`{"k\"ey": {"a": 1}}`,
		`{`,
		`{"a":`,
		`]`,
		`tru`,
		``,
		`{"k\"ey": {"key": {"b": 2}}, "x": "key", "key": [{"b": "\"key\":"}]}`,
		setEdgeSeed(),
	} {
		f.Add([]byte(s))
	}
	sets := [][]string{
		{"$..a", "$.a.b"},
		{"$..a", "$..b"},
		{"$..key..b", "$.*", "$[0]"},
		{"$.a[1:3]", "$..absent", "$.a.*"},
		{`$..['k\"ey']`, "$..a..b", "$[0].a"},
	}
	type member struct {
		set, streamSet *QuerySet
		queries        []*Query
		srcs           []string
	}
	var members []member
	for _, srcs := range sets {
		// The depth limit is off: a skipped subtree does not count towards
		// it, and a set skips less than its members, so the limit alone
		// could fail the set where its members pass.
		m := member{
			set:       MustCompileSet(srcs, WithMaxDepth(-1)),
			streamSet: MustCompileSet(srcs, WithMaxDepth(-1), WithStreamWindow(64)),
			srcs:      srcs,
		}
		for _, src := range srcs {
			m.queries = append(m.queries, MustCompile(src, WithMaxDepth(-1)))
		}
		members = append(members, m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		valid := json.Valid(data)
		var doc *IndexedDocument
		if valid {
			var err error
			if doc, err = Index(data); err != nil {
				t.Fatalf("Index rejected valid JSON %q: %v", data, err)
			}
		}
		for _, m := range members {
			var got []setMatch
			err := m.set.Run(data, func(q, pos int) { got = append(got, setMatch{query: q, pos: pos}) })
			var streamed []setMatch
			serr := m.streamSet.RunReader(faultreader.OneByte(data), func(q, pos int) {
				streamed = append(streamed, setMatch{query: q, pos: pos})
			})
			if !valid {
				continue // malformed: any clean result is acceptable
			}
			var want []setMatch
			for qi, q := range m.queries {
				offs, qerr := q.MatchOffsets(data)
				if qerr != nil {
					t.Fatalf("%s on valid %q: %v", m.srcs[qi], data, qerr)
				}
				for _, pos := range offs {
					want = append(want, setMatch{query: qi, pos: pos})
				}
			}
			sort.Slice(want, func(i, j int) bool {
				if want[i].pos != want[j].pos {
					return want[i].pos < want[j].pos
				}
				return want[i].query < want[j].query
			})
			if err != nil {
				t.Fatalf("%q Run on valid %q: %v", m.srcs, data, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%q Run on %q:\n  set:     %v\n  members: %v", m.srcs, data, got, want)
			}
			var indexed []setMatch
			if err := m.set.RunIndexed(doc, func(q, pos int) {
				indexed = append(indexed, setMatch{query: q, pos: pos})
			}); err != nil {
				t.Fatalf("%q RunIndexed on valid %q: %v", m.srcs, data, err)
			}
			if fmt.Sprint(indexed) != fmt.Sprint(want) {
				t.Fatalf("%q RunIndexed on %q:\n  set:     %v\n  members: %v", m.srcs, data, indexed, want)
			}
			var winErr *input.Error
			switch {
			case errors.As(serr, &winErr):
				// window defeat: acceptable on any input
			case serr != nil:
				t.Fatalf("%q RunReader on valid %q: %v", m.srcs, data, serr)
			case fmt.Sprint(streamed) != fmt.Sprint(want):
				t.Fatalf("%q RunReader on %q:\n  set:     %v\n  members: %v", m.srcs, data, streamed, want)
			}
		}
	})
}

// setEdgeSeed is a document past two 64-byte blocks whose "key" keys
// straddle the 32-, 64- and 128-byte edges of the seeker's pair filter.
func setEdgeSeed() string {
	var sb strings.Builder
	sb.WriteString(`{"p":"`)
	for _, at := range []int{30, 62, 126} {
		for sb.Len() < at-2 {
			sb.WriteByte('x')
		}
		sb.WriteString(`","key":{"b":1},"q":"`)
	}
	sb.WriteString(`"}`)
	return sb.String()
}

package rsonpath

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rsonpath/internal/classifier"
	"rsonpath/internal/input"
)

// TestIndexedCompliance runs the whole compliance corpus through the indexed
// path: RunIndexed must produce exactly Run's matches on every well-formed
// document, for single queries and for sets.
func TestIndexedCompliance(t *testing.T) {
	cases := append(append([]complianceCase(nil), complianceCases...), sliceComplianceCases...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc, err := Index([]byte(c.doc))
			if err != nil {
				t.Fatalf("Index: %v", err)
			}
			q := MustCompile(c.query)
			want, err := q.MatchOffsets([]byte(c.doc))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got, err := q.MatchOffsetsIndexed(doc)
			if err != nil {
				t.Fatalf("RunIndexed: %v", err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s on %s:\n  indexed %v\n  direct  %v", c.query, c.doc, got, want)
			}

			s := MustCompileSet([]string{c.query, "$.*"})
			wantSet, err := s.MatchOffsets([]byte(c.doc))
			if err != nil {
				t.Fatalf("set Run: %v", err)
			}
			gotSet := make([][]int, s.Len())
			if err := s.RunIndexed(doc, func(qi, pos int) { gotSet[qi] = append(gotSet[qi], pos) }); err != nil {
				t.Fatalf("set RunIndexed: %v", err)
			}
			if fmt.Sprint(gotSet) != fmt.Sprint(wantSet) {
				t.Fatalf("set on %s:\n  indexed %v\n  direct  %v", c.doc, gotSet, wantSet)
			}
		})
	}
}

func TestIndexRejectsMalformed(t *testing.T) {
	for _, doc := range []string{
		`"unterminated`, // ends inside a string
		`{"a": "open`,   // ditto, nested
		`{"a": [1, 2]`,  // more opens than closes
		`[[[`,           // ditto
		`{"a": 1}}`,     // more closes than opens
	} {
		_, err := Index([]byte(doc))
		if _, ok := err.(*MalformedError); !ok {
			t.Fatalf("Index(%q): err %v, want *MalformedError", doc, err)
		}
	}
	// The screens are necessary, not sufficient: count-balanced but
	// mismatched brackets pass Index and fail at query time instead.
	if _, err := Index([]byte(`{"a": [1, 2}]`)); err != nil {
		t.Fatalf("screen rejected a count-balanced document: %v", err)
	}
}

// TestIndexedFallbacks pins the documented fallbacks: the other engines
// and queries compiled WithTimeout answer RunIndexed through a plain Run.
func TestIndexedFallbacks(t *testing.T) {
	data := []byte(`{"a": [{"b": 1}, {"b": 2}]}`)
	doc, err := Index(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithEngine(EngineDOM)},
		{WithTimeout(time.Minute)},
	} {
		q, err := Compile("$.a[*].b", opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := q.MatchOffsets(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.MatchOffsetsIndexed(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fallback path diverged: %v vs %v", got, want)
		}
	}
	s, err := CompileSet([]string{"$.a[*].b"}, WithTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	counts, err := s.CountsIndexed(doc)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 {
		t.Fatalf("set timeout fallback counts %v", counts)
	}
}

// TestIndexedConcurrent shares one IndexedDocument across goroutines and
// queries; run under -race this proves the immutability claim.
// TestIndexedWatchdogScans: under WithTimeout every indexed entry point
// scans the document bytes, as Explain says, and none reads the planes. The
// index here describes other bytes, so a run that read its planes would
// fail or diverge.
func TestIndexedWatchdogScans(t *testing.T) {
	data := []byte(`{"b": [1, 2], "a": 3}`)
	stale := []byte(`[{"b": 1}, [[0]], 22]`)
	doc := &IndexedDocument{data: data, in: input.NewBytes(data), planes: classifier.BuildPlanes(stale)}
	q := MustCompile("$.a", WithTimeout(time.Hour))
	if p := q.Explain(DocStats{Indexed: true}); p.Strategy != "scan" || p.Rule != "watchdog-streams" {
		t.Fatalf("plan = %+v, want the watchdog's scan", p)
	}
	want, err := q.MatchOffsets(data)
	if err != nil || len(want) != 1 {
		t.Fatalf("cold run: %v, %v", want, err)
	}
	got, err := q.MatchOffsetsIndexed(doc)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchOffsetsIndexed = %v, %v; want %v", got, err, want)
	}
	got = nil
	oc, err := q.RunIndexedSupervised(context.Background(), doc, func(pos int) { got = append(got, pos) })
	if err != nil || !reflect.DeepEqual(got, want) || oc.Degraded() {
		t.Fatalf("RunIndexedSupervised = %v, %v (%+v); want %v", got, err, oc, want)
	}
	set := MustCompileSet([]string{"$.a"}, WithTimeout(time.Hour))
	if counts, err := set.CountsIndexed(doc); err != nil || !reflect.DeepEqual(counts, []int{1}) {
		t.Fatalf("QuerySet.CountsIndexed = %v, %v; want [1]", counts, err)
	}
}

func TestIndexedConcurrent(t *testing.T) {
	data := []byte(`{"a": [{"b": 1}, {"b": 2}], "c": {"b": 3}}`)
	doc, err := Index(data)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*Query{MustCompile("$..b"), MustCompile("$.a[*].b"), MustCompile("$.c.b")}
	wants := make([][]int, len(queries))
	for i, q := range queries {
		if wants[i], err = q.MatchOffsets(data); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				i := (g + iter) % len(queries)
				got, err := queries[i].MatchOffsetsIndexed(doc)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if fmt.Sprint(got) != fmt.Sprint(wants[i]) {
					t.Errorf("goroutine %d: %v vs %v", g, got, wants[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzIndexedEquivalence feeds arbitrary documents to both paths. On valid
// JSON the indexed run must be match-for-match identical to the direct run
// (and Index must accept the document — the screens are necessary
// conditions). On invalid JSON the indexed path may legitimately differ in
// which error it reports, so only valid documents are compared.
func FuzzIndexedEquivalence(f *testing.F) {
	f.Add([]byte(`{"a": [{"b": 1}, {"b": 2}], "c": {"b": 3}}`))
	f.Add([]byte(`[{"deep": {"b": [1, 2, 3]}}, 4]`))
	f.Add([]byte(`{"b": {"b": {"b": 0}}}`))
	f.Add([]byte(`{"x": "][}{\"", "b": 5}`))
	// The index queries stop their arrays after the last selected entry:
	// cold and indexed runs must agree on where, and the indexed run's
	// summarized skips must land where the cold run's plane walk does.
	queries := []string{"$..b", "$.a[*].b", "$.*", "$[0]", "$.a[1]", "$[0:2].b", "$.*[0]"}
	compiled := make([]*Query, len(queries))
	for i, src := range queries {
		compiled[i] = MustCompile(src)
	}
	set := MustCompileSet(queries)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		doc, err := Index(data)
		if err != nil {
			t.Fatalf("Index rejected valid JSON %q: %v", data, err)
		}
		for i, q := range compiled {
			want, werr := q.MatchOffsets(data)
			got, gerr := q.MatchOffsetsIndexed(doc)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("query %s on %q: direct err %v, indexed err %v", queries[i], data, werr, gerr)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("query %s on %q: indexed %v, direct %v", queries[i], data, got, want)
			}
		}
		want, werr := set.MatchOffsets(data)
		gotSet := make([][]int, set.Len())
		gerr := set.RunIndexed(doc, func(qi, pos int) { gotSet[qi] = append(gotSet[qi], pos) })
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("set on %q: direct err %v, indexed err %v", data, werr, gerr)
		}
		if werr == nil && fmt.Sprint(gotSet) != fmt.Sprint(want) {
			t.Fatalf("set on %q: indexed %v, direct %v", data, gotSet, want)
		}
	})
}

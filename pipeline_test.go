package rsonpath

import (
	"errors"
	"strings"
	"testing"
)

func TestPipelineTwoStages(t *testing.T) {
	doc := []byte(`{"users": [{"addr": {"city": "A"}}, {"addr": {"city": "B"}}], "addr": {"city": "C"}}`)
	p := NewPipeline(MustCompile("$.users.*"), MustCompile("$..city"))
	vals, err := p.MatchValues(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || string(vals[0]) != `"A"` || string(vals[1]) != `"B"` {
		t.Fatalf("values %q", vals)
	}
}

func TestPipelineEquivalentToConcatenation(t *testing.T) {
	// $.a | $..b must equal $.a..b under node semantics.
	doc := []byte(`{"a": {"x": {"b": 1}, "b": [2]}, "b": 3}`)
	p := NewPipeline(MustCompile("$.a"), MustCompile("$..b"))
	got, err := p.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MustCompile("$.a..b").MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pipeline %v, direct %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pipeline %v, direct %v", got, want)
		}
	}
}

func TestPipelineDeduplicatesOverlaps(t *testing.T) {
	// Stage 1 matches nested nodes; stage 2 must not double-report.
	doc := []byte(`{"a": {"a": {"b": 1}}}`)
	p := NewPipeline(MustCompile("$..a"), MustCompile("$..b"))
	offs, err := p.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 1 {
		t.Fatalf("offsets %v, want one (node semantics)", offs)
	}
}

func TestPipelineThreeStagesAndIdentity(t *testing.T) {
	doc := []byte(`{"a": {"b": {"c": 42}}}`)
	p := NewPipeline(MustCompile("$.a"), MustCompile("$.b"), MustCompile("$.c"))
	n, err := p.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count %d", n)
	}
	// "$" stages are identities.
	p = NewPipeline(MustCompile("$"), MustCompile("$..c"), MustCompile("$"))
	offs, err := p.MatchOffsets(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 1 || string(doc[offs[0]]) != "4" {
		t.Fatalf("offsets %v", offs)
	}
}

func TestPipelineEmptyAndErrors(t *testing.T) {
	p := NewPipeline()
	offs, err := p.MatchOffsets([]byte(`{}`))
	if err != nil || len(offs) != 0 {
		t.Fatalf("empty pipeline: %v %v", offs, err)
	}
	p = NewPipeline(MustCompile("$.a"))
	if _, err := p.MatchOffsets([]byte(`{"a":`)); err == nil {
		t.Fatal("malformed input accepted")
	}
}

func TestRunLines(t *testing.T) {
	input := strings.Join([]string{
		`{"a": 1, "b": {"a": 2}}`,
		``,
		`{"x": 0}`,
		`[{"a": 3}]`,
	}, "\n")
	q := MustCompile("$..a")
	var lines []int
	var total int
	err := q.RunLines(strings.NewReader(input), func(m LineMatch) error {
		lines = append(lines, m.Line)
		total += len(m.Offsets)
		for _, o := range m.Offsets {
			if _, err := ValueAt(m.Record, o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 || len(lines) != 2 || lines[0] != 1 || lines[1] != 4 {
		t.Fatalf("lines %v, total %d", lines, total)
	}
}

func TestCountLines(t *testing.T) {
	input := `{"a": 1}` + "\n" + `{"a": [1, 2]}` + "\n"
	n, failures, err := MustCompile("$.a").CountLines(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(failures) != 0 {
		t.Fatalf("count %d, failures %v", n, failures)
	}
}

func TestRunLinesNoTrailingNewline(t *testing.T) {
	n, failures, err := MustCompile("$.a").CountLines(strings.NewReader(`{"a": 9}`))
	if err != nil || n != 1 || len(failures) != 0 {
		t.Fatalf("n=%d failures=%v err=%v", n, failures, err)
	}
}

func TestRunLinesMalformedRecord(t *testing.T) {
	// A malformed record is reported to visit with a typed per-line error
	// and the scan continues with the following records.
	input := `{"a": 1}` + "\n" + `{"a": ` + "\n" + `{"a": 3}` + "\n"
	var badLine int
	var badErr error
	total := 0
	err := MustCompile("$.a").RunLines(strings.NewReader(input), func(m LineMatch) error {
		if m.Err != nil {
			badLine = m.Line
			badErr = m.Err
			return nil
		}
		total += len(m.Offsets)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if badLine != 2 {
		t.Fatalf("bad line %d, want 2", badLine)
	}
	var me *MalformedError
	if !errors.As(badErr, &me) {
		t.Fatalf("line error = %v, want *MalformedError", badErr)
	}
	if total != 2 {
		t.Fatalf("matches on good lines = %d, want 2", total)
	}
}

func TestRunLinesVisitErrorStops(t *testing.T) {
	input := `{"a": 1}` + "\n" + `{"a": 2}` + "\n"
	calls := 0
	errStop := errors.New("stop")
	err := MustCompile("$.a").RunLines(strings.NewReader(input), func(LineMatch) error {
		calls++
		return errStop
	})
	if err != errStop || calls != 1 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

func TestRunLinesLargeRecords(t *testing.T) {
	// Records larger than the reader's buffer must still work.
	big := `{"a": "` + strings.Repeat("x", 1<<18) + `", "b": {"a": 1}}`
	input := big + "\n" + big + "\n"
	n, _, err := MustCompile("$..a").CountLines(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("count %d, want 4", n)
	}
}

func TestPipelineEmptyAndWhitespaceDocuments(t *testing.T) {
	p := NewPipeline(MustCompile("$.a"), MustCompile("$..b"))
	for _, doc := range []string{"", "   ", "\n\t"} {
		n, err := p.Count([]byte(doc))
		if err != nil {
			t.Errorf("Count(%q): %v", doc, err)
		}
		if n != 0 {
			t.Errorf("Count(%q) = %d, want 0", doc, n)
		}
		offs, err := p.MatchOffsets([]byte(doc))
		if err != nil {
			t.Errorf("MatchOffsets(%q): %v", doc, err)
		}
		if len(offs) != 0 {
			t.Errorf("MatchOffsets(%q) = %v, want none", doc, offs)
		}
		vals, err := p.MatchValues([]byte(doc))
		if err != nil {
			t.Errorf("MatchValues(%q): %v", doc, err)
		}
		if len(vals) != 0 {
			t.Errorf("MatchValues(%q) = %q, want none", doc, vals)
		}
	}
}

package rsonpath

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rsonpath/internal/jsongen"
)

// The allocation ceilings below are regression guards for the scratch pools
// (input.BufferedInput window buffers, the lines families' chunks):
// measured steady-state counts padded ~50% for toolchain noise. A failure
// here means a hot path regained a per-run or per-record allocation the
// pools were added to remove — most likely a NewBuffered call site that
// lost its Release, a lines scan that copies its records again, or a
// supervised record that arms a timer again.

func allocFixtures() (*Query, *QuerySet, []byte, []byte) {
	q := MustCompile("$.a[*].b")
	s := MustCompileSet([]string{"$.a[*].b", "$.x"})
	doc := []byte(`{"a":[{"b":1},{"b":2},{"b":3}],"x":"` + strings.Repeat("y", 200) + `"}`)
	var lines bytes.Buffer
	for i := 0; i < 64; i++ {
		lines.Write(doc)
		lines.WriteByte('\n')
	}
	return q, s, doc, lines.Bytes()
}

// TestCountAllocs pins the run paths' own allocations: a cold Count and a
// CountIndexed over a 1 MiB jsongen Crossref document, for a child chain
// with wildcards, a head-skip descendant chain, an index selector and a
// wildcard with an index. The ceilings (4 and 3) are what these paths
// measured before the structural cursor moved into the engine's pooled run
// state; they measure 3 and 2 since, whatever the document's size. The
// cursor is held by value, so nothing the event loop keeps may escape
// into an allocation of its own.
func TestCountAllocs(t *testing.T) {
	p, ok := jsongen.ByName("crossref")
	if !ok {
		t.Fatal("no crossref profile")
	}
	doc := p.Generate(1<<20, 42)
	idx, err := Index(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"$.items.*.author.*.family", "$..affiliation..name", "$.items[3].DOI", "$.items.*.title[0]"} {
		q := MustCompile(src)
		cold := testing.AllocsPerRun(10, func() {
			if _, err := q.Count(doc); err != nil {
				t.Fatal(err)
			}
		})
		if cold > 4 {
			t.Errorf("%s: Count %.1f allocs/run, want <= 4", src, cold)
		}
		warm := testing.AllocsPerRun(10, func() {
			if _, err := q.CountIndexed(idx); err != nil {
				t.Fatal(err)
			}
		})
		if warm > 3 {
			t.Errorf("%s: CountIndexed %.1f allocs/run, want <= 3", src, warm)
		}
	}
}

// TestSetCountsAllocs pins a set run's own allocations: QuerySet.Counts over
// the same 1 MiB Crossref document, for a 2- and a 3-member set. It measures
// 3 per run (the counts, the emit closure and the in-memory input); the
// steppers and their targets come from the pooled run state.
func TestSetCountsAllocs(t *testing.T) {
	if raceEnabled {
		// A dropped Put rebuilds the run state and both per-member slices,
		// three allocations at random, which this ceiling cannot absorb.
		t.Skip("pooled set state is not reused deterministically under -race")
	}
	p, ok := jsongen.ByName("crossref")
	if !ok {
		t.Fatal("no crossref profile")
	}
	doc := p.Generate(1<<20, 42)
	for _, srcs := range [][]string{
		{"$.items.*.author.*.family", "$..affiliation..name"},
		{"$.items[3].DOI", "$.items.*.title[0]", "$..DOI"},
	} {
		s := MustCompileSet(srcs)
		got := testing.AllocsPerRun(10, func() {
			if _, err := s.Counts(doc); err != nil {
				t.Fatal(err)
			}
		})
		if got > 4 {
			t.Errorf("%q: Counts %.1f allocs/run, want <= 4", srcs, got)
		}
	}
}

func TestRunReaderAllocs(t *testing.T) {
	q, _, doc, _ := allocFixtures()
	got := testing.AllocsPerRun(50, func() {
		if err := q.RunReader(bytes.NewReader(doc), func(int) {}); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state measures 6; in particular the ~288 KiB window buffer must
	// come from the pool, not a fresh make, on every run after the first.
	if got > 12 {
		t.Fatalf("RunReader: %.1f allocs/run, want <= 12", got)
	}
}

func TestSetRunLinesAllocs(t *testing.T) {
	_, s, _, lines := allocFixtures()
	const records = 64
	got := testing.AllocsPerRun(20, func() {
		if err := s.RunLines(bytes.NewReader(lines), func(SetLineMatch) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state measures 3.1.
	if per := got / records; per > 5 {
		t.Fatalf("QuerySet.RunLines: %.2f allocs/record, want <= 5", per)
	}
}

func TestRunLinesParallelAllocs(t *testing.T) {
	q, _, _, lines := allocFixtures()
	const records = 64
	// One worker keeps the schedule deterministic; the pools are what is
	// under test, not the pool of workers.
	got := testing.AllocsPerRun(20, func() {
		if err := q.RunLinesParallel(bytes.NewReader(lines), 1, func(LineMatch) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state measures 3.2.
	if per := got / records; per > 5 {
		t.Fatalf("Query.RunLinesParallel: %.2f allocs/record, want <= 5", per)
	}
}

// TestRunLinesTimeoutAllocs pins the daemon's configuration — a per-record
// deadline, two workers — and the sequential scan to the same count as no
// deadline: a record that fits one stream window costs a clock read, not a
// context and a timer. Steady state measures 3.2 for the pool and 3.0 for
// the sequential scan.
func TestRunLinesTimeoutAllocs(t *testing.T) {
	_, _, _, lines := allocFixtures()
	q := MustCompile("$.a[*].b", WithTimeout(time.Minute))
	const records = 64
	for _, workers := range []int{0, 2} {
		got := testing.AllocsPerRun(20, func() {
			var err error
			if workers == 0 {
				err = q.RunLines(bytes.NewReader(lines), func(LineMatch) error { return nil })
			} else {
				err = q.RunLinesParallel(bytes.NewReader(lines), workers, func(LineMatch) error { return nil })
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		if per := got / records; per > 5 {
			t.Fatalf("workers=%d: %.2f allocs/record, want <= 5", workers, per)
		}
	}
}

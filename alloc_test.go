package rsonpath

import (
	"bytes"
	"strings"
	"testing"
	"time"
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
	// Steady state measures 9.1.
	if per := got / records; per > 14 {
		t.Fatalf("QuerySet.RunLines: %.2f allocs/record, want <= 14", per)
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
	// Steady state measures 6.2.
	if per := got / records; per > 9 {
		t.Fatalf("Query.RunLinesParallel: %.2f allocs/record, want <= 9", per)
	}
}

// TestRunLinesTimeoutAllocs pins the daemon's configuration — a per-record
// deadline, two workers — and the sequential scan to the same count as no
// deadline: a record that fits one stream window costs a clock read, not a
// context and a timer. Steady state measures 6.2 for the pool and 6.0 for
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
		if per := got / records; per > 9 {
			t.Fatalf("workers=%d: %.2f allocs/record, want <= 9", workers, per)
		}
	}
}

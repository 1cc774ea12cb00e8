package rsonpath

// Differential fault-injection suite: every compliance document is driven
// through every engine under hostile readers (one-byte reads, block-torn
// reads, mid-stream errors), truncation at every offset, and resource
// limits. The tiered contract:
//
//   - content-preserving reader faults must yield matches identical to the
//     in-memory run of the same engine;
//   - an injected read error must surface (errors.Is) at the API boundary;
//   - truncation must never panic, never hang, and never report a match the
//     full document does not have — a typed error or a clean subset, only.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"rsonpath/internal/faultreader"
	"rsonpath/internal/input"
)

// faultEngines are the engines with a streaming surface (everything but the
// DOM oracle, which needs the whole document in memory).
var faultEngines = []EngineKind{EngineRsonpath, EngineStackless}

// allFaultCases is the full compliance corpus, both tables.
func allFaultCases() []complianceCase {
	cases := make([]complianceCase, 0, len(complianceCases)+len(sliceComplianceCases))
	cases = append(cases, complianceCases...)
	cases = append(cases, sliceComplianceCases...)
	return cases
}

// runOffsets collects the match offsets of one in-memory run.
func runOffsets(q runner, doc []byte) ([]int, error) {
	var offs []int
	err := q.Run(doc, func(pos int) { offs = append(offs, pos) })
	return offs, err
}

func sameOffsets(a, b []int) bool {
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

// subsetOffsets reports whether every offset in got also occurs in want.
func subsetOffsets(got, want []int) bool {
	set := make(map[int]bool, len(want))
	for _, o := range want {
		set[o] = true
	}
	for _, o := range got {
		if !set[o] {
			return false
		}
	}
	return true
}

// typedFailure reports whether err belongs to the public failure
// vocabulary: malformed input, a tripped limit, or a window violation (the
// pre-existing *input.Error contract for features wider than the window).
func typedFailure(err error) bool {
	var me *MalformedError
	var le *LimitError
	var ie *input.Error
	return errors.As(err, &me) || errors.As(err, &le) || errors.As(err, &ie)
}

// TestFaultContentPreservingReaders runs the whole corpus through readers
// that deliver the exact document bytes but tear every read — one byte at a
// time, at every block boundary, and at a single mid-document point. The
// matches must be identical to the in-memory run of the same engine.
func TestFaultContentPreservingReaders(t *testing.T) {
	for _, c := range allFaultCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			doc := []byte(c.doc)
			for _, kind := range faultEngines {
				q, err := Compile(c.query, WithEngine(kind))
				if err != nil {
					continue // engine does not support this query's fragment
				}
				want, err := runOffsets(q, doc)
				if err != nil {
					t.Fatalf("[%v] in-memory run: %v", kind, err)
				}
				readers := map[string]func() io.Reader{
					"one-byte":   func() io.Reader { return faultreader.OneByte(doc) },
					"block-torn": func() io.Reader { return faultreader.Chunked(doc, 64) },
					"torn-mid":   func() io.Reader { return faultreader.TornAt(doc, len(doc)/2) },
				}
				for name, mk := range readers {
					var got []int
					err := q.RunReader(mk(), func(pos int) { got = append(got, pos) })
					if err != nil {
						t.Fatalf("[%v/%s] streaming run: %v", kind, name, err)
					}
					if !sameOffsets(got, want) {
						t.Fatalf("[%v/%s] offsets %v, in-memory %v", kind, name, got, want)
					}
				}
			}
		})
	}
}

// TestFaultInjectedReadError verifies that a reader failing mid-stream
// surfaces its error (unmangled, matchable with errors.Is) and that any
// matches delivered before the failure are matches of the full document.
func TestFaultInjectedReadError(t *testing.T) {
	for _, c := range allFaultCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			doc := []byte(c.doc)
			for _, kind := range faultEngines {
				q, err := Compile(c.query, WithEngine(kind))
				if err != nil {
					continue
				}
				want, err := runOffsets(q, doc)
				if err != nil {
					t.Fatalf("[%v] in-memory run: %v", kind, err)
				}
				for _, n := range []int{0, len(doc) / 2} {
					var got []int
					err := q.RunReader(faultreader.ErrorAfter(doc, n), func(pos int) { got = append(got, pos) })
					if err == nil {
						t.Fatalf("[%v] ErrorAfter(%d): run succeeded", kind, n)
					}
					if !errors.Is(err, faultreader.ErrInjected) {
						t.Fatalf("[%v] ErrorAfter(%d): error %v does not wrap the injected error", kind, n, err)
					}
					if !subsetOffsets(got, want) {
						t.Fatalf("[%v] ErrorAfter(%d): offsets %v not a subset of %v", kind, n, got, want)
					}
				}
			}
		})
	}
}

// TestFaultTruncationSweep truncates every compliance document at every
// offset and runs the result through every engine, in memory and streamed.
// A truncated document must never panic, never produce an untyped error,
// and never report a match the full document does not have. (Detection is
// best-effort on the skipping engines — a truncation may go unnoticed when
// the tail happens to look complete — but over-reporting is never allowed;
// see DESIGN.md §9.)
func TestFaultTruncationSweep(t *testing.T) {
	engines := append([]EngineKind{EngineDOM}, faultEngines...)
	for _, c := range allFaultCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			doc := []byte(c.doc)
			for _, kind := range engines {
				q, err := Compile(c.query, WithEngine(kind))
				if err != nil {
					continue
				}
				want, err := runOffsets(q, doc)
				if err != nil {
					t.Fatalf("[%v] full-document run: %v", kind, err)
				}
				for cut := 0; cut < len(doc); cut++ {
					trunc := doc[:cut]

					got, err := runOffsets(q, trunc)
					checkTruncated(t, kind, "in-memory", cut, got, want, err)
					if kind == EngineDOM {
						if err != nil {
							var me *MalformedError
							if !errors.As(err, &me) {
								t.Fatalf("[dom] cut %d: error %v, want *MalformedError (exact detection)", cut, err)
							}
						}
						continue // no streaming surface
					}

					var soffs []int
					serr := q.RunReader(bytes.NewReader(trunc), func(pos int) { soffs = append(soffs, pos) })
					checkTruncated(t, kind, "streaming", cut, soffs, want, serr)
				}
			}
		})
	}
}

func checkTruncated(t *testing.T, kind EngineKind, mode string, cut int, got, want []int, err error) {
	t.Helper()
	if err != nil {
		var ie *InternalError
		if errors.As(err, &ie) {
			t.Fatalf("[%v/%s] cut %d: internal fault %v (contained panic)", kind, mode, cut, err)
		}
		if !typedFailure(err) {
			t.Fatalf("[%v/%s] cut %d: untyped error %v", kind, mode, cut, err)
		}
	}
	if !subsetOffsets(got, want) {
		t.Fatalf("[%v/%s] cut %d: offsets %v not a subset of full-document %v", kind, mode, cut, got, want)
	}
}

// TestFaultTruncationWindowBoundaries is the streaming sweep at
// window-boundary-adjacent offsets: a document spanning several refill
// windows, truncated exactly at, just before, and just after each window
// edge, so the truncation lands in every refill-relative position.
func TestFaultTruncationWindowBoundaries(t *testing.T) {
	const window = 512
	var b strings.Builder
	b.WriteString(`{"pad": [`)
	for i := 0; b.Len() < 4*window; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `{"k": %d}`, i)
	}
	b.WriteString(`], "k": -1}`)
	doc := []byte(b.String())

	cuts := []int{0, 1, 63, 64, 65}
	for w := window; w < len(doc); w += window {
		cuts = append(cuts, w-1, w, w+1)
	}
	cuts = append(cuts, len(doc)-1)

	for _, kind := range faultEngines {
		q, err := Compile("$..k", WithEngine(kind), WithStreamWindow(window))
		if err != nil {
			continue
		}
		want, err := runOffsets(q, doc)
		if err != nil {
			t.Fatalf("[%v] full run: %v", kind, err)
		}
		if len(want) == 0 {
			t.Fatalf("[%v] full run found no matches; bad fixture", kind)
		}
		// The untruncated document must stream cleanly at this window first.
		var full []int
		if err := q.RunReader(bytes.NewReader(doc), func(pos int) { full = append(full, pos) }); err != nil {
			t.Fatalf("[%v] streaming full run: %v", kind, err)
		}
		if !sameOffsets(full, want) {
			t.Fatalf("[%v] streaming offsets %v, in-memory %v", kind, full, want)
		}
		for _, cut := range cuts {
			var got []int
			err := q.RunReader(bytes.NewReader(doc[:cut]), func(pos int) { got = append(got, pos) })
			checkTruncated(t, kind, "window-sweep", cut, got, want, err)
		}
	}
}

// TestFaultDeepNesting feeds a megabyte of '[' — the classic stack-blowing
// input — to every stack-bearing engine. With default options the depth
// limit must trip as a typed *LimitError long before any stack is at risk.
func TestFaultDeepNesting(t *testing.T) {
	doc := bytes.Repeat([]byte("["), 1<<20)
	// Each query is chosen to drive its engine's stack-bearing loop: a
	// descendant index makes the paper's engine descend every level (a
	// label query would head-skip, which is depth-agnostic O(1) by design);
	// EngineStackless only accepts descendant label chains but tracks depth
	// for its closer-kind map.
	queries := map[EngineKind]string{
		EngineRsonpath:  "$..[0]",
		EngineDOM:       "$.a",
		EngineStackless: "$..a",
	}
	for _, kind := range []EngineKind{EngineRsonpath, EngineDOM, EngineStackless} {
		q, err := Compile(queries[kind], WithEngine(kind))
		if err != nil {
			t.Fatalf("[%v] compile: %v", kind, err)
		}
		_, err = runOffsets(q, doc)
		if err == nil {
			t.Fatalf("[%v] accepted a megabyte of '['", kind)
		}
		if !errors.Is(err, ErrLimitExceeded) {
			t.Fatalf("[%v] error %v, want depth *LimitError", kind, err)
		}
		var le *LimitError
		if !errors.As(err, &le) || le.What != "depth" || le.Max != DefaultMaxDepth {
			t.Fatalf("[%v] error %v, want depth limit %d", kind, err, DefaultMaxDepth)
		}
		if kind == EngineDOM {
			continue
		}
		// Same contract on the streaming surface.
		err = q.RunReader(bytes.NewReader(doc), func(int) {})
		if !errors.Is(err, ErrLimitExceeded) {
			t.Fatalf("[%v] streaming error %v, want depth *LimitError", kind, err)
		}
	}

	// The head-skip path of the paper's engine is depth-agnostic by design
	// (O(1) memory, nothing to protect): it must still reject the document
	// with a typed error, not crash or accept it.
	hs := MustCompile("$..a", WithEngine(EngineRsonpath))
	if _, err := runOffsets(hs, doc); err == nil {
		t.Fatal("[rsonpath head-skip] accepted a megabyte of '['")
	} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("[rsonpath head-skip] untyped error %v", err)
	}
}

func TestWithMaxDepth(t *testing.T) {
	doc := []byte(`{"a": {"b": {"c": {"d": 1}}}}`)
	for _, kind := range []EngineKind{EngineRsonpath, EngineDOM} {
		q, err := Compile("$.a.b.c.d", WithEngine(kind), WithMaxDepth(3))
		if err != nil {
			t.Fatalf("[%v] compile: %v", kind, err)
		}
		if _, err := runOffsets(q, doc); !errors.Is(err, ErrLimitExceeded) {
			t.Fatalf("[%v] depth 4 under limit 3: err %v", kind, err)
		}
		deep, err := Compile("$.a.b.c.d", WithEngine(kind), WithMaxDepth(8))
		if err != nil {
			t.Fatalf("[%v] compile: %v", kind, err)
		}
		offs, err := runOffsets(deep, doc)
		if err != nil || len(offs) != 1 {
			t.Fatalf("[%v] depth 4 under limit 8: offs %v err %v", kind, offs, err)
		}
	}
}

func TestWithMaxMatches(t *testing.T) {
	doc := []byte(`[10, 20, 30, 40, 50]`)
	q := MustCompile("$[*]", WithMaxMatches(3))
	var offs []int
	err := q.Run(doc, func(pos int) { offs = append(offs, pos) })
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("err %v, want *LimitError", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.What != "matches" || le.Max != 3 {
		t.Fatalf("err %v, want matches limit 3", err)
	}
	if len(offs) != 3 {
		t.Fatalf("delivered %d matches before the abort, want exactly 3", len(offs))
	}
	// Under the limit: untouched.
	under := MustCompile("$[*]", WithMaxMatches(5))
	offs = offs[:0]
	if err := under.Run(doc, func(pos int) { offs = append(offs, pos) }); err != nil || len(offs) != 5 {
		t.Fatalf("exactly-at-limit run: offs %v err %v", offs, err)
	}
	// Streaming surface.
	offs = offs[:0]
	err = q.RunReader(bytes.NewReader(doc), func(pos int) { offs = append(offs, pos) })
	if !errors.Is(err, ErrLimitExceeded) || len(offs) != 3 {
		t.Fatalf("streaming: offs %v err %v", offs, err)
	}
}

func TestWithMaxDocBytes(t *testing.T) {
	doc := []byte(`{"a": [1, 2, 3, 4, 5, 6, 7, 8]}`)
	q := MustCompile("$.a", WithMaxDocBytes(10))
	if _, err := runOffsets(q, doc); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("in-memory err %v, want *LimitError", err)
	}
	var le *LimitError
	err := q.RunReader(bytes.NewReader(doc), func(int) {})
	if !errors.As(err, &le) || le.What != "document bytes" || le.Max != 10 {
		t.Fatalf("streaming err %v, want document-bytes limit 10", err)
	}
	ok := MustCompile("$.a", WithMaxDocBytes(len(doc)))
	if offs, err := runOffsets(ok, doc); err != nil || len(offs) != 1 {
		t.Fatalf("at-limit run: offs %v err %v", offs, err)
	}
}

func TestQuerySetLimits(t *testing.T) {
	doc := []byte(`{"a": 1, "b": {"a": 2, "b": 3}}`)
	set := MustCompileSet([]string{"$..a", "$..b"}, WithMaxMatches(2))
	total := 0
	err := set.Run(doc, func(query, pos int) { total++ })
	if !errors.Is(err, ErrLimitExceeded) || total != 2 {
		t.Fatalf("total %d err %v, want 2 matches then *LimitError", total, err)
	}
	set = MustCompileSet([]string{"$..a"}, WithMaxDocBytes(8))
	if err := set.Run(doc, func(int, int) {}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("doc-bytes err %v, want *LimitError", err)
	}
	set = MustCompileSet([]string{"$..a"}, WithMaxDepth(1))
	if err := set.Run(doc, func(int, int) {}); !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("depth err %v, want *LimitError", err)
	}
}

// TestRunReaderContextCancellation cancels a run whose reader is blocked
// mid-document and requires the run to return promptly — within one window
// refill — with an error wrapping both ErrCanceled and context.Canceled.
func TestRunReaderContextCancellation(t *testing.T) {
	const window = 512
	doc := []byte(`{"pad": "` + strings.Repeat("x", 4*window) + `", "a": 1}`)

	unblock := make(chan struct{})
	defer close(unblock)
	r := faultreader.Blocking(doc, window, unblock)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)

	q := MustCompile("$.a", WithStreamWindow(window))
	done := make(chan error, 1)
	go func() { done <- q.RunReaderContext(ctx, r, func(int) {}) }()

	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err %v, want wrap of ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want wrap of context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after cancellation (reader still blocked)")
	}
}

func TestQuerySetRunReaderContextCancellation(t *testing.T) {
	const window = 512
	doc := []byte(`{"pad": "` + strings.Repeat("y", 4*window) + `", "a": 1}`)

	unblock := make(chan struct{})
	defer close(unblock)
	r := faultreader.Blocking(doc, window, unblock)

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)

	set := MustCompileSet([]string{"$..a", "$..b"}, WithStreamWindow(window))
	done := make(chan error, 1)
	go func() { done <- set.RunReaderContext(ctx, r, func(int, int) {}) }()

	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want wrap of ErrCanceled and context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query-set run did not return after cancellation")
	}
}

func TestRunReaderContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := MustCompile("$.a").RunReaderContext(ctx, bytes.NewReader([]byte(`{"a": 1}`)), func(int) {})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err %v, want ErrCanceled", err)
	}
}

func TestRunReaderContextCompletes(t *testing.T) {
	// A run that finishes before cancellation behaves exactly like RunReader.
	doc := []byte(`{"a": 1, "b": {"a": 2}}`)
	var offs []int
	err := MustCompile("$..a").RunReaderContext(context.Background(),
		bytes.NewReader(doc), func(pos int) { offs = append(offs, pos) })
	if err != nil || len(offs) != 2 {
		t.Fatalf("offs %v err %v", offs, err)
	}
}

// TestPanicContainment: a panic escaping the engine (here provoked through
// the caller's own emit callback, the only seam reachable from a test) is
// contained at the API boundary as a typed *InternalError, never a crash.
func TestPanicContainment(t *testing.T) {
	err := MustCompile("$.a").Run([]byte(`{"a": 1}`), func(int) { panic("boom") })
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err %v, want *InternalError", err)
	}
	if ie.Engine != "rsonpath" || ie.Cause != "boom" {
		t.Fatalf("contained fault %+v", ie)
	}
}

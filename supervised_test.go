package rsonpath

// Differential suite for the execution supervisor (DESIGN.md §10): faults
// injected into the primary engine must leave the supervised output
// byte-identical to a clean run of the DOM oracle over the whole compliance
// corpus, with the Outcome recording every fallback. FallbackOff must
// surface the fault instead, deadlines must never trigger the ladder, and a
// watchdog deadline must fire even against a blocking reader.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rsonpath/internal/classifier"
	"rsonpath/internal/faultreader"
	"rsonpath/internal/input"
)

// faultyRunner interposes on a Query's engine: it delegates to the real
// engine but panics — the fault guardRun contains as an *InternalError —
// either immediately (failAt < 0) or as the failAt-th match is emitted. It
// implements both the in-memory and streaming surfaces so every supervised
// entry point can be driven through it.
type faultyRunner struct {
	inner  runner
	failAt int          // <0: panic at entry; n≥0: panic when match n is emitted
	fired  atomic.Int32 // number of times the fault actually fired
}

func (f *faultyRunner) hook(emit func(pos int)) func(pos int) {
	count := 0
	return func(pos int) {
		if count == f.failAt {
			f.fired.Add(1)
			panic("injected engine fault")
		}
		count++
		emit(pos)
	}
}

func (f *faultyRunner) Run(data []byte, emit func(pos int)) error {
	if f.failAt < 0 {
		f.fired.Add(1)
		panic("injected engine fault")
	}
	return f.inner.Run(data, f.hook(emit))
}

func (f *faultyRunner) RunInput(in input.Input, emit func(pos int)) error {
	if f.failAt < 0 {
		f.fired.Add(1)
		panic("injected engine fault")
	}
	return f.inner.(inputRunner).RunInput(in, f.hook(emit))
}

// domOffsets is the clean reference answer for one corpus case.
func domOffsets(t *testing.T, query string, doc []byte) []int {
	t.Helper()
	dq, err := Compile(query, WithEngine(EngineDOM))
	if err != nil {
		t.Fatalf("dom compile %s: %v", query, err)
	}
	offs, err := runOffsets(dq, doc)
	if err != nil {
		t.Fatalf("dom run %s: %v", query, err)
	}
	return offs
}

// TestSupervisorDifferentialFallback drives the whole compliance corpus
// through every streaming engine with an injected fault — at engine entry
// and mid-emission — and requires the supervised output to be identical to
// a clean run of the DOM oracle, with the Outcome recording the fallback.
func TestSupervisorDifferentialFallback(t *testing.T) {
	for _, c := range allFaultCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			doc := []byte(c.doc)
			want := domOffsets(t, c.query, doc)
			for _, kind := range faultEngines {
				q, err := Compile(c.query, WithEngine(kind))
				if err != nil {
					continue // engine does not support this query's fragment
				}
				failAts := []int{-1}
				if n := len(want); n > 0 {
					failAts = append(failAts, n/2)
				}
				for _, failAt := range failAts {
					fr := &faultyRunner{inner: q.run, failAt: failAt}
					q.run = fr
					var got []int
					oc, err := q.RunSupervised(context.Background(), doc, func(pos int) { got = append(got, pos) })
					q.run = fr.inner
					if failAt >= 0 && fr.fired.Load() == 0 {
						// The engine found fewer matches than the oracle
						// (e.g. ski's restricted wildcard): the fault never
						// fired, so there is nothing to supervise here.
						continue
					}
					if err != nil {
						t.Fatalf("[%v failAt=%d] supervised run: %v", kind, failAt, err)
					}
					if !sameOffsets(got, want) {
						t.Fatalf("[%v failAt=%d] offsets %v, dom oracle %v", kind, failAt, got, want)
					}
					if !oc.Degraded() || oc.Engine != "dom" || oc.Attempts != 2 {
						t.Fatalf("[%v failAt=%d] outcome %+v, want degraded dom run in 2 attempts", kind, failAt, oc)
					}
					var ie *InternalError
					if !errors.As(oc.FallbackReason, &ie) {
						t.Fatalf("[%v failAt=%d] fallback reason %v, want *InternalError", kind, failAt, oc.FallbackReason)
					}
				}
			}
		})
	}
}

// TestSupervisorCleanRunOutcome: with no fault the primary answers in one
// attempt and the supervised output equals the direct run's.
func TestSupervisorCleanRunOutcome(t *testing.T) {
	for _, c := range allFaultCases() {
		doc := []byte(c.doc)
		for _, kind := range faultEngines {
			q, err := Compile(c.query, WithEngine(kind))
			if err != nil {
				continue
			}
			want, err := runOffsets(q, doc)
			if err != nil {
				t.Fatalf("[%s/%v] direct run: %v", c.name, kind, err)
			}
			var got []int
			oc, err := q.RunSupervised(context.Background(), doc, func(pos int) { got = append(got, pos) })
			if err != nil {
				t.Fatalf("[%s/%v] supervised run: %v", c.name, kind, err)
			}
			if !sameOffsets(got, want) {
				t.Fatalf("[%s/%v] offsets %v, direct %v", c.name, kind, got, want)
			}
			if oc.Degraded() || oc.Attempts != 1 || oc.Engine != kind.String() {
				t.Fatalf("[%s/%v] outcome %+v, want clean single attempt", c.name, kind, oc)
			}
		}
	}
}

// TestSupervisorFallbackOff: with the ladder disabled the injected fault
// surfaces as an *InternalError and no output is delivered — a failed
// primary attempt must not leak its partial matches.
func TestSupervisorFallbackOff(t *testing.T) {
	doc := []byte(`{"a": 1, "b": {"a": 2}}`)
	q := MustCompile("$..a", WithFallback(FallbackOff))
	q.run = &faultyRunner{inner: q.run, failAt: 1} // fault after one match
	emitted := 0
	oc, err := q.RunSupervised(context.Background(), doc, func(int) { emitted++ })
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err %v, want *InternalError", err)
	}
	if emitted != 0 {
		t.Fatalf("failed attempt leaked %d matches", emitted)
	}
	if oc.Degraded() || oc.Attempts != 1 {
		t.Fatalf("outcome %+v, want undegraded single attempt", oc)
	}
}

// TestSupervisorDeadlineNeverLadders: an expired deadline is the caller's
// verdict, not an engine fault — the oracle must not run.
func TestSupervisorDeadlineNeverLadders(t *testing.T) {
	doc := []byte(`{"a": [` + strings.Repeat(`{"b": 1}, `, 1<<14) + `{"b": 1}]}`)
	q := MustCompile("$..b", WithTimeout(time.Nanosecond))
	emitted := 0
	oc, err := q.RunSupervised(context.Background(), doc, func(int) { emitted++ })
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want wrap of ErrCanceled and context.DeadlineExceeded", err)
	}
	if oc.Degraded() {
		t.Fatalf("outcome %+v: deadline expiry triggered the ladder", oc)
	}
	if emitted != 0 {
		t.Fatalf("expired run leaked %d matches", emitted)
	}
}

// TestSupervisorTimeoutAgainstBlockingReader: the watchdog must fire within
// the deadline even while the underlying reader blocks forever.
func TestSupervisorTimeoutAgainstBlockingReader(t *testing.T) {
	const window = 512
	doc := []byte(`{"pad": "` + strings.Repeat("x", 4*window) + `", "a": 1}`)
	unblock := make(chan struct{})
	defer close(unblock)

	q := MustCompile("$.a", WithStreamWindow(window), WithTimeout(50*time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := q.RunReaderSupervised(context.Background(), func() (io.Reader, error) {
			return faultreader.Blocking(doc, window, unblock), nil
		}, func(int) {})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err %v, want wrap of ErrCanceled and context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("supervised run did not observe its deadline against a blocking reader")
	}
}

// TestRunReaderSupervisedFallback: a mid-stream engine fault re-runs the
// query on the buffered DOM oracle via a fresh reader.
func TestRunReaderSupervisedFallback(t *testing.T) {
	doc := []byte(`{"a": 1, "b": {"a": [2, 3]}}`)
	want := domOffsets(t, "$..a", doc)
	q := MustCompile("$..a")
	q.run = &faultyRunner{inner: q.run, failAt: 1}
	opens := 0
	var got []int
	oc, err := q.RunReaderSupervised(context.Background(), func() (io.Reader, error) {
		opens++
		return bytes.NewReader(doc), nil
	}, func(pos int) { got = append(got, pos) })
	if err != nil {
		t.Fatalf("supervised run: %v", err)
	}
	if !sameOffsets(got, want) {
		t.Fatalf("offsets %v, dom oracle %v", got, want)
	}
	if !oc.Degraded() || oc.Engine != "dom" || oc.Attempts != 2 || opens != 2 {
		t.Fatalf("outcome %+v opens %d, want degraded dom run reopening the input", oc, opens)
	}
}

// TestRunReaderSupervisedReaderError: the supervisor has no retry leg, so
// a reader error surfaces from the one attempt that met it — the input is
// opened once, and a non-degradable error leaves the ladder cold.
func TestRunReaderSupervisedReaderError(t *testing.T) {
	doc := []byte(`{"a": 1, "b": {"a": 2}}`)
	q := MustCompile("$..a")
	opens := 0
	oc, err := q.RunReaderSupervised(context.Background(), func() (io.Reader, error) {
		opens++
		return faultreader.ErrorAfter(doc, len(doc)/2), nil
	}, func(int) {})
	if !errors.Is(err, faultreader.ErrInjected) {
		t.Fatalf("err %v, want the injected reader error", err)
	}
	if oc.Degraded() || oc.Attempts != 1 || oc.Engine != "rsonpath" || opens != 1 {
		t.Fatalf("outcome %+v opens %d, want one undegraded attempt", oc, opens)
	}
}

// faultySet interposes on a QuerySet's one-pass driver the way faultyRunner
// does on a Query's engine.
type faultySet struct {
	inner  setRunner
	failAt int
	fired  int
}

func (f *faultySet) Len() int { return f.inner.Len() }

func (f *faultySet) hook(emit func(query, pos int)) func(query, pos int) {
	count := 0
	return func(query, pos int) {
		if count == f.failAt {
			f.fired++
			panic("injected set fault")
		}
		count++
		emit(query, pos)
	}
}

func (f *faultySet) Run(data []byte, emit func(query, pos int)) error {
	if f.failAt < 0 {
		f.fired++
		panic("injected set fault")
	}
	return f.inner.Run(data, f.hook(emit))
}

func (f *faultySet) RunInput(in input.Input, emit func(query, pos int)) error {
	if f.failAt < 0 {
		f.fired++
		panic("injected set fault")
	}
	return f.inner.RunInput(in, f.hook(emit))
}

func (f *faultySet) RunPlanes(in input.Input, planes *classifier.Planes, emit func(query, pos int)) error {
	if f.failAt < 0 {
		f.fired++
		panic("injected set fault")
	}
	return f.inner.RunPlanes(in, planes, f.hook(emit))
}

// TestQuerySetSupervisedFallback: a fault in the shared one-pass driver
// degrades to per-query DOM runs whose union arrives in the shared pass's
// order — (offset, query index) — and matches the clean set run.
func TestQuerySetSupervisedFallback(t *testing.T) {
	doc := []byte(`{"a": 1, "b": {"a": 2, "b": {"a": 3}}, "c": [{"b": 4}]}`)
	queries := []string{"$..a", "$..b"}
	clean := MustCompileSet(queries)
	type match struct{ q, pos int }
	var want []match
	if err := clean.Run(doc, func(q, pos int) { want = append(want, match{q, pos}) }); err != nil {
		t.Fatalf("clean set run: %v", err)
	}
	if len(want) == 0 {
		t.Fatal("bad fixture: clean set run found nothing")
	}
	for _, failAt := range []int{-1, len(want) / 2} {
		set := MustCompileSet(queries)
		set.set = &faultySet{inner: set.set, failAt: failAt}
		var got []match
		oc, err := set.RunSupervised(context.Background(), doc, func(q, pos int) { got = append(got, match{q, pos}) })
		if err != nil {
			t.Fatalf("[failAt=%d] supervised set run: %v", failAt, err)
		}
		if len(got) != len(want) {
			t.Fatalf("[failAt=%d] %d matches, want %d", failAt, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[failAt=%d] match %d = %+v, want %+v", failAt, i, got[i], want[i])
			}
		}
		if !oc.Degraded() || oc.Engine != "dom" || oc.Attempts != 2 {
			t.Fatalf("[failAt=%d] outcome %+v, want degraded dom run", failAt, oc)
		}
	}
}

// TestQuerySetSupervisedFallbackOff mirrors the single-query contract.
func TestQuerySetSupervisedFallbackOff(t *testing.T) {
	set := MustCompileSet([]string{"$..a"}, WithFallback(FallbackOff))
	set.set = &faultySet{inner: set.set, failAt: -1}
	emitted := 0
	oc, err := set.RunSupervised(context.Background(), []byte(`{"a": 1}`), func(int, int) { emitted++ })
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err %v, want *InternalError", err)
	}
	if emitted != 0 || oc.Degraded() {
		t.Fatalf("emitted %d, outcome %+v; want contained failure with no output", emitted, oc)
	}
}

// TestSupervisedMalformedNotLaddered: malformed input is the input's
// verdict; the oracle must not be consulted and the error class must be
// preserved.
func TestSupervisedMalformedNotLaddered(t *testing.T) {
	q := MustCompile("$.a")
	oc, err := q.RunSupervised(context.Background(), []byte(`{"a": `), func(int) {})
	var me *MalformedError
	if !errors.As(err, &me) {
		t.Fatalf("err %v, want *MalformedError", err)
	}
	if oc.Degraded() || oc.Attempts != 1 {
		t.Fatalf("outcome %+v: malformed input reached the ladder", oc)
	}
}

// FuzzSupervisorFallback fuzzes the document and the injection point:
// whenever the injected fault fires, the supervised run must settle on the
// DOM oracle's clean answer (same offsets, same error class) — the
// differential property at the heart of the degradation ladder.
func FuzzSupervisorFallback(f *testing.F) {
	for i, c := range allFaultCases() {
		if i%7 == 0 {
			f.Add([]byte(c.doc), 0)
			f.Add([]byte(c.doc), 2)
		}
	}
	f.Add([]byte(`{"a": [1, {"a": 2}]}`), -1)
	const query = "$..a"
	f.Fuzz(func(t *testing.T, doc []byte, failAt int) {
		if len(doc) > 1<<16 {
			return
		}
		dq := MustCompile(query, WithEngine(EngineDOM))
		wantOffs, wantErr := runOffsets(dq, doc)

		q := MustCompile(query)
		fr := &faultyRunner{inner: q.run, failAt: failAt}
		q.run = fr
		var got []int
		oc, err := q.RunSupervised(context.Background(), doc, func(pos int) { got = append(got, pos) })

		if !oc.Degraded() {
			return // fault never fired, or the input failed before it could
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("supervised err %v, dom err %v", err, wantErr)
		}
		if err == nil && !sameOffsets(got, wantOffs) {
			t.Fatalf("offsets %v, dom oracle %v", got, wantOffs)
		}
		if err != nil {
			var me *MalformedError
			var le *LimitError
			wantMe, wantLe := errors.As(wantErr, &me), errors.As(wantErr, &le)
			gotMe, gotLe := errors.As(err, &me), errors.As(err, &le)
			if wantMe != gotMe || wantLe != gotLe {
				t.Fatalf("error class mismatch: supervised %v, dom %v", err, wantErr)
			}
		}
	})
}

// The ladder's own contract (supervision.ladder), with scripted attempts in
// place of engines: errLadderInternal is degradable, errLadderFatal is not.
var (
	errLadderInternal = &InternalError{Engine: "fast", Offset: -1, Cause: "internal fault"}
	errLadderFatal    = errors.New("fatal")
)

// ladderScript returns an attempt that yields the scripted errors in order
// (sticking on the last one) and counts its runs.
func ladderScript(runs *int, script ...error) func() error {
	return func() error {
		i := *runs
		*runs++
		if i >= len(script) {
			i = len(script) - 1
		}
		return script[i]
	}
}

// primaryScript is ladderScript for the primary, which takes a context.
func primaryScript(runs *int, script ...error) func(context.Context) error {
	run := ladderScript(runs, script...)
	return func(context.Context) error { return run() }
}

func TestLadderCleanFirstAttempt(t *testing.T) {
	runs := 0
	o, err := supervision{}.ladder(context.Background(), "fast", false, primaryScript(&runs, nil), nil)
	if err != nil || runs != 1 {
		t.Fatalf("err %v runs %d", err, runs)
	}
	if o.Attempts != 1 || o.Engine != "fast" || o.Degraded() {
		t.Fatalf("outcome %+v", o)
	}
	if o.Duration < 0 {
		t.Fatalf("negative duration %v", o.Duration)
	}
}

// TestLadderNonRetryableNotRetried: the ladder has no retry leg, so a failed
// primary is terminal — it runs once and its error is the verdict.
func TestLadderNonRetryableNotRetried(t *testing.T) {
	runs := 0
	o, err := supervision{}.ladder(context.Background(), "fast", false, primaryScript(&runs, errLadderFatal, nil), nil)
	if !errors.Is(err, errLadderFatal) || runs != 1 || o.Attempts != 1 {
		t.Fatalf("err %v runs %d attempts %d", err, runs, o.Attempts)
	}
}

func TestLadderFallbackRescues(t *testing.T) {
	pruns, fruns := 0, 0
	o, err := supervision{}.ladder(context.Background(), "fast", false,
		primaryScript(&pruns, errLadderInternal), ladderScript(&fruns, nil))
	if err != nil {
		t.Fatalf("err %v", err)
	}
	if pruns != 1 || fruns != 1 || o.Attempts != 2 {
		t.Fatalf("pruns %d fruns %d attempts %d", pruns, fruns, o.Attempts)
	}
	if o.Engine != "dom" || !errors.Is(o.FallbackReason, errLadderInternal) {
		t.Fatalf("outcome %+v", o)
	}
}

func TestLadderFallbackErrorWins(t *testing.T) {
	pruns, fruns := 0, 0
	o, err := supervision{}.ladder(context.Background(), "fast", false,
		primaryScript(&pruns, errLadderInternal), ladderScript(&fruns, errLadderFatal))
	if !errors.Is(err, errLadderFatal) {
		t.Fatalf("err %v, want the oracle's verdict", err)
	}
	if o.Engine != "dom" || !errors.Is(o.FallbackReason, errLadderInternal) || o.Attempts != 2 {
		t.Fatalf("outcome %+v", o)
	}
}

func TestLadderFallbackOff(t *testing.T) {
	pruns, fruns := 0, 0
	_, err := supervision{fallback: FallbackOff}.ladder(context.Background(), "fast", false,
		primaryScript(&pruns, errLadderInternal), ladderScript(&fruns, nil))
	if !errors.Is(err, errLadderInternal) || fruns != 0 {
		t.Fatalf("err %v fruns %d", err, fruns)
	}
}

func TestLadderNonDegradableNotLaddered(t *testing.T) {
	pruns, fruns := 0, 0
	o, err := supervision{}.ladder(context.Background(), "fast", false,
		primaryScript(&pruns, errLadderFatal), ladderScript(&fruns, nil))
	if !errors.Is(err, errLadderFatal) || fruns != 0 || o.Degraded() {
		t.Fatalf("err %v fruns %d outcome %+v", err, fruns, o)
	}
}

func TestLadderCanceledContextStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pruns, fruns := 0, 0
	primary := func(context.Context) error {
		pruns++
		cancel() // the attempt observes cancellation mid-run
		return errLadderInternal
	}
	_, err := supervision{}.ladder(ctx, "fast", false, primary, ladderScript(&fruns, nil))
	if !errors.Is(err, errLadderInternal) {
		t.Fatalf("err %v", err)
	}
	if pruns != 1 || fruns != 0 {
		t.Fatalf("canceled context must stop the fallback: pruns %d fruns %d", pruns, fruns)
	}
}

// TestLadderTimeoutAppliesToAttemptContext: a non-atomic primary runs under
// the deadline, and a fault past the deadline does not ladder; an atomic
// primary gets the caller's context as is.
func TestLadderTimeoutAppliesToAttemptContext(t *testing.T) {
	sup := supervision{timeout: 10 * time.Millisecond}
	fruns := 0
	primary := func(ctx context.Context) error {
		<-ctx.Done() // a hung engine: only the deadline frees it
		return errLadderInternal
	}
	o, err := sup.ladder(context.Background(), "fast", false, primary, ladderScript(&fruns, nil))
	if !errors.Is(err, errLadderInternal) {
		t.Fatalf("err %v", err)
	}
	if fruns != 0 {
		t.Fatalf("deadline expiry must not trigger the fallback (fruns %d)", fruns)
	}
	if o.Attempts != 1 {
		t.Fatalf("attempts %d", o.Attempts)
	}

	type callerKey struct{}
	ctx := context.WithValue(context.Background(), callerKey{}, "caller")
	atomicPrimary := func(actx context.Context) error {
		if actx != ctx {
			return errors.New("atomic attempt got a derived context")
		}
		return nil
	}
	if _, err := sup.ladder(ctx, "fast", true, atomicPrimary, nil); err != nil {
		t.Fatal(err)
	}
}

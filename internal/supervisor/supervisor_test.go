package supervisor

import (
	"context"
	"errors"
	"testing"
	"time"
)

var (
	errInternal = errors.New("internal fault")
	errFatal    = errors.New("fatal")
)

// attemptScript returns an Attempt that yields the scripted errors in order
// (sticking on the last one) and counts its runs.
func attemptScript(name string, runs *int, script ...error) Attempt {
	return Attempt{Engine: name, Run: func(context.Context) error {
		i := *runs
		*runs++
		if i >= len(script) {
			i = len(script) - 1
		}
		return script[i]
	}}
}

func TestCleanFirstAttempt(t *testing.T) {
	runs := 0
	o, err := Run(context.Background(), Policy{}, attemptScript("fast", &runs, nil), nil)
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

// TestNonRetryableNotRetried: the supervisor has no retry leg, so a failed
// primary is terminal — it runs once and its error is the verdict.
func TestNonRetryableNotRetried(t *testing.T) {
	runs := 0
	o, err := Run(context.Background(), Policy{}, attemptScript("fast", &runs, errFatal, nil), nil)
	if !errors.Is(err, errFatal) || runs != 1 || o.Attempts != 1 {
		t.Fatalf("err %v runs %d attempts %d", err, runs, o.Attempts)
	}
}

func TestFallbackRescues(t *testing.T) {
	pruns, fruns := 0, 0
	p := Policy{Degradable: func(err error) bool { return errors.Is(err, errInternal) }}
	fb := attemptScript("oracle", &fruns, nil)
	o, err := Run(context.Background(), p, attemptScript("fast", &pruns, errInternal), &fb)
	if err != nil {
		t.Fatalf("err %v", err)
	}
	if pruns != 1 || fruns != 1 || o.Attempts != 2 {
		t.Fatalf("pruns %d fruns %d attempts %d", pruns, fruns, o.Attempts)
	}
	if o.Engine != "oracle" || !errors.Is(o.FallbackReason, errInternal) {
		t.Fatalf("outcome %+v", o)
	}
}

func TestFallbackErrorWins(t *testing.T) {
	pruns, fruns := 0, 0
	p := Policy{Degradable: func(err error) bool { return errors.Is(err, errInternal) }}
	fb := attemptScript("oracle", &fruns, errFatal)
	o, err := Run(context.Background(), p, attemptScript("fast", &pruns, errInternal), &fb)
	if !errors.Is(err, errFatal) {
		t.Fatalf("err %v, want the oracle's verdict", err)
	}
	if o.Engine != "oracle" || !errors.Is(o.FallbackReason, errInternal) || o.Attempts != 2 {
		t.Fatalf("outcome %+v", o)
	}
}

func TestFallbackOff(t *testing.T) {
	pruns, fruns := 0, 0
	p := Policy{FallbackOff: true, Degradable: func(error) bool { return true }}
	fb := attemptScript("oracle", &fruns, nil)
	_, err := Run(context.Background(), p, attemptScript("fast", &pruns, errInternal), &fb)
	if !errors.Is(err, errInternal) || fruns != 0 {
		t.Fatalf("err %v fruns %d", err, fruns)
	}
}

func TestNonDegradableNotLaddered(t *testing.T) {
	pruns, fruns := 0, 0
	p := Policy{Degradable: func(err error) bool { return errors.Is(err, errInternal) }}
	fb := attemptScript("oracle", &fruns, nil)
	o, err := Run(context.Background(), p, attemptScript("fast", &pruns, errFatal), &fb)
	if !errors.Is(err, errFatal) || fruns != 0 || o.Degraded() {
		t.Fatalf("err %v fruns %d outcome %+v", err, fruns, o)
	}
}

func TestCanceledContextStopsLadder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pruns, fruns := 0, 0
	p := Policy{Degradable: func(error) bool { return true }}
	primary := Attempt{Engine: "fast", Run: func(ctx context.Context) error {
		pruns++
		cancel() // the attempt observes cancellation mid-run
		return errInternal
	}}
	fb := attemptScript("oracle", &fruns, nil)
	_, err := Run(ctx, p, primary, &fb)
	if !errors.Is(err, errInternal) {
		t.Fatalf("err %v", err)
	}
	if pruns != 1 || fruns != 0 {
		t.Fatalf("canceled context must stop the fallback: pruns %d fruns %d", pruns, fruns)
	}
}

func TestTimeoutAppliesToAttemptContext(t *testing.T) {
	p := Policy{Timeout: 10 * time.Millisecond, Degradable: func(error) bool { return true }}
	fruns := 0
	primary := Attempt{Engine: "fast", Run: func(ctx context.Context) error {
		<-ctx.Done() // a hung engine: only the deadline frees it
		return ctx.Err()
	}}
	fb := attemptScript("oracle", &fruns, nil)
	o, err := Run(context.Background(), p, primary, &fb)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v", err)
	}
	if fruns != 0 {
		t.Fatalf("deadline expiry must not trigger the fallback (fruns %d)", fruns)
	}
	if o.Attempts != 1 {
		t.Fatalf("attempts %d", o.Attempts)
	}
}

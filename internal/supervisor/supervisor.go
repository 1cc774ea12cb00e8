// Package supervisor is the resilience layer above the engines: it wraps a
// single query run in a watchdog deadline and a degradation ladder that
// re-runs the query on a slower-but-trusted fallback engine when the
// primary fails with an internal fault. It is the same engine-ladder idea the paper applies when
// it validates rsonpath against serde-based oracles, promoted from the test
// harness into the serving path.
//
// The package is deliberately engine-agnostic: an attempt is just a closure
// and an engine name, and the caller supplies the error classifier
// (Degradable). The root rsonpath package adapts Query and
// QuerySet runs to it; nothing here knows about JSON.
package supervisor

import (
	"context"
	"time"
)

// Outcome records how a supervised run settled. It is informational — the
// run's error (or nil) is returned alongside it — and is the caller's
// evidence of degradation: a serving stack alerts on FallbackReason being
// non-nil long before the primary engine's fault becomes user-visible.
type Outcome struct {
	// Attempts is the total number of engine runs: 1, or 2 when the
	// fallback ran.
	Attempts int
	// Engine names the engine that produced the final result (or the final
	// error): the primary's name, or the fallback's after degradation.
	Engine string
	// FallbackReason is the primary's terminal error when the fallback ran,
	// nil otherwise. A non-nil value with a nil run error means the ladder
	// rescued the query.
	FallbackReason error
	// Duration is the wall-clock time of the whole supervised run, fallback
	// included.
	Duration time.Duration
}

// Degraded reports whether the result was produced by the fallback engine.
func (o Outcome) Degraded() bool { return o.FallbackReason != nil }

// Attempt is one way of running the query: an engine name for the Outcome
// and a closure that performs the run. The primary and the fallback share
// the caller's output buffers, so each closure must reset any state it
// accumulates (output buffers, reopened readers) at entry.
type Attempt struct {
	Engine string
	// Atomic marks a run that never looks at its context once started (a
	// DOM parse, a plane run): it gets the caller's context as is, with no
	// deadline timer, since Run's entry check is all it can observe.
	Atomic bool
	Run    func(ctx context.Context) error
}

// Policy configures a supervised run. The zero value supervises nothing
// extra: no deadline, fallback enabled if a fallback attempt and a
// Degradable classifier are supplied.
type Policy struct {
	// Timeout bounds the whole supervised run — the primary and the
	// fallback share the one budget. 0 means no deadline beyond the
	// caller's context.
	Timeout time.Duration
	// FallbackOff disables the degradation ladder even when a fallback
	// attempt is available.
	FallbackOff bool
	// Degradable classifies errors that trigger the fallback ladder. nil
	// disables the ladder.
	Degradable func(error) bool
}

// Run executes primary under the policy and — if its error is degradable
// and a fallback is given — runs the fallback once. The primary is never
// re-run. The returned error is the error of the attempt that speaks last:
// nil if either attempt succeeded, the fallback's error if the ladder ran
// and failed (the trusted engine's verdict outranks the primary's fault),
// the primary's error otherwise.
//
// An attempt runs only if, at its entry, the caller's context is live and
// the clock is short of the policy deadline; otherwise it settles on the
// context's error (context.DeadlineExceeded for the deadline). Cancellation
// is never laddered: past either, the fallback does not start, so a
// deadline cannot be blown further by a slow fallback.
func Run(ctx context.Context, p Policy, primary Attempt, fallback *Attempt) (Outcome, error) {
	start := time.Now()
	var deadline time.Time
	if p.Timeout > 0 {
		deadline = start.Add(p.Timeout)
	}
	o := Outcome{Engine: primary.Engine, Attempts: 1}
	err := run(ctx, deadline, primary)
	if err != nil && expired(ctx, deadline) == nil &&
		!p.FallbackOff && fallback != nil &&
		p.Degradable != nil && p.Degradable(err) {
		o.Attempts++
		o.Engine = fallback.Engine
		o.FallbackReason = err
		err = run(ctx, deadline, *fallback)
	}

	o.Duration = time.Since(start)
	return o, err
}

// run is one attempt under the deadline (zero: none).
func run(ctx context.Context, deadline time.Time, a Attempt) error {
	if err := expired(ctx, deadline); err != nil {
		return err
	}
	if !a.Atomic && !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	return a.Run(ctx)
}

// expired returns why a run may not start, or nil.
func expired(ctx context.Context, deadline time.Time) error {
	if err := ctx.Err(); err != nil || deadline.IsZero() || time.Until(deadline) > 0 {
		return err
	}
	return context.DeadlineExceeded
}

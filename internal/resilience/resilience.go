// Package resilience is the fault-tolerance layer shared by both Savanna
// execution engines. A campaign on a real machine meets transient node
// faults, wedged processes, walltime expiry and the occasional parameter
// combination that can never succeed; the paper's reusability argument
// requires the campaign artifact to *survive* those, not restart from
// provenance archaeology. The package provides the four mechanisms the
// engines share:
//
//   - failure classification (transient / permanent / deadline-exceeded),
//     attached to errors by the executors via Mark* wrappers and read back
//     with Classify;
//   - a retry policy with exponential backoff and decorrelated jitter,
//     expressed as a pure delay computation so the local engine sleeps real
//     time while the simulated engine advances virtual time;
//   - a quarantine circuit breaker that side-lines sweep points failing
//     repeatedly, so one poisoned parameter combination cannot starve the
//     worker pool;
//   - a journaled attempt log whose replay reconstructs the in-flight /
//     remaining / quarantined sets after a killed process — the substrate of
//     "savanna run".
//
// A Controller bundles the mechanisms with campaign-level stop conditions
// (max failure fraction → graceful abort) and renders a CompletenessReport
// at the end, so a degraded sweep ends in an explicit accounting instead of
// a hang or an all-failed result set.
package resilience

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Class grades a run failure for the retry decision.
type Class string

// Failure classes.
const (
	// ClassTransient failures (node fault, flaky I/O, killed by a failing
	// node) are expected to succeed on re-execution; they are the class the
	// retry policy spends attempts on.
	ClassTransient Class = "transient"
	// ClassPermanent failures (bad parameters, missing binary, non-zero
	// application exit) will fail identically every time; retrying wastes
	// allocation.
	ClassPermanent Class = "permanent"
	// ClassDeadline marks a run that exceeded its per-run deadline. It is
	// terminal by default: a run that overran its walltime will overrun it
	// again under the same policy.
	ClassDeadline Class = "deadline"
)

// Retryable reports whether the class is worth another attempt.
func (c Class) Retryable() bool { return c == ClassTransient }

// classified wraps an error with its failure class. The message is left
// untouched — classification travels in the type, not the text.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// Mark attaches a failure class to err (nil stays nil).
func Mark(err error, class Class) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: class}
}

// MarkTransient classifies err as transient.
func MarkTransient(err error) error { return Mark(err, ClassTransient) }

// MarkPermanent classifies err as permanent.
func MarkPermanent(err error) error { return Mark(err, ClassPermanent) }

// Classify reads the failure class of err: an explicit Mark wins, a
// context.DeadlineExceeded anywhere in the chain is ClassDeadline, and an
// unmarked error defaults to ClassTransient — on an HPC system the
// overwhelmingly common unexplained failure is environmental, and the
// attempt cap bounds the cost of guessing wrong.
func Classify(err error) Class {
	if err == nil {
		return ""
	}
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassDeadline
	}
	return ClassTransient
}

// RetryPolicy bounds and paces re-execution of failed runs.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions per run (first try
	// included). Values < 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the first backoff delay (0 retries immediately).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 defaults to 64 × BaseDelay).
	MaxDelay time.Duration
}

// Attempts returns the effective attempt cap (≥ 1).
func (p RetryPolicy) Attempts() int { return max(p.MaxAttempts, 1) }

// Backoff computes the next delay using decorrelated jitter: the next wait
// is drawn uniformly from [BaseDelay, 3 × previous wait], capped at
// MaxDelay. Pass 0 for the first retry. Decorrelation keeps a burst of
// simultaneous failures from re-converging into synchronized retry storms
// the way plain exponential backoff with full jitter can.
func (p RetryPolicy) Backoff(prev time.Duration, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		return 0
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = 64 * base
	}
	d := base
	if span := max(3*prev, base) - base; span > 0 {
		d = base + time.Duration(rng.Int63n(int64(span)+1))
	}
	return min(d, cap)
}

// Sleeper pauses between attempts. The local engine uses a real timer; tests
// and simulations substitute their own so no test ever sleeps.
type Sleeper func(ctx context.Context, d time.Duration) error

// StdSleeper sleeps on a real timer, returning early (with the context's
// error) when ctx is cancelled.
func StdSleeper(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

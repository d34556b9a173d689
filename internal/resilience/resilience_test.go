package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		err  error
		want Class
	}{
		{nil, Class("")},
		{base, ClassTransient}, // unmarked defaults transient
		{MarkTransient(base), ClassTransient},
		{MarkPermanent(base), ClassPermanent},
		{Mark(base, ClassDeadline), ClassDeadline},
		{fmt.Errorf("wrapped: %w", MarkPermanent(base)), ClassPermanent},
		{fmt.Errorf("run x: %w", context.DeadlineExceeded), ClassDeadline},
	}
	for i, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("case %d: Classify = %q, want %q", i, got, c.want)
		}
	}
	if !ClassTransient.Retryable() || ClassPermanent.Retryable() || ClassDeadline.Retryable() {
		t.Fatal("retryability table wrong")
	}
}

func TestMarkPreservesMessageAndChain(t *testing.T) {
	base := errors.New("original message")
	m := MarkPermanent(base)
	if m.Error() != "original message" {
		t.Fatalf("message polluted: %q", m.Error())
	}
	if !errors.Is(m, base) {
		t.Fatal("Mark broke the unwrap chain")
	}
	if Mark(nil, ClassPermanent) != nil {
		t.Fatal("Mark(nil) must stay nil")
	}
}

func TestBackoffDecorrelatedJitter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Second, MaxDelay: 10 * time.Second}
	rng := rand.New(rand.NewSource(1))
	prev := time.Duration(0)
	for i := 0; i < 200; i++ {
		d := p.Backoff(prev, rng)
		if d < p.BaseDelay || d > p.MaxDelay {
			t.Fatalf("iter %d: delay %v outside [base, cap]", i, d)
		}
		hi := 3 * prev
		if hi < p.BaseDelay {
			hi = p.BaseDelay
		}
		if hi > p.MaxDelay {
			hi = p.MaxDelay
		}
		if d > hi {
			t.Fatalf("iter %d: delay %v exceeds decorrelated bound %v", i, d, hi)
		}
		prev = d
	}
}

func TestBackoffZeroBaseNeverSleeps(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3}
	rng := rand.New(rand.NewSource(1))
	if d := p.Backoff(0, rng); d != 0 {
		t.Fatalf("zero-base backoff = %v, want 0", d)
	}
}

func TestRetryPolicyAttemptsFloor(t *testing.T) {
	if (RetryPolicy{}).Attempts() != 1 {
		t.Fatal("zero policy must allow exactly one attempt")
	}
	if (RetryPolicy{MaxAttempts: 4}).Attempts() != 4 {
		t.Fatal("attempt cap not honoured")
	}
}

func TestQuarantineTripsAfterThreshold(t *testing.T) {
	q := NewQuarantine(3)
	key := "alpha=1"
	for i := 0; i < 2; i++ {
		if q.NoteFailure(key) {
			t.Fatalf("tripped after %d failures", i+1)
		}
		if !q.Allow(key) {
			t.Fatal("blocked before threshold")
		}
	}
	if !q.NoteFailure(key) {
		t.Fatal("third consecutive failure must trip the breaker")
	}
	if q.Allow(key) {
		t.Fatal("quarantined point still allowed")
	}
	if q.NoteFailure(key) {
		t.Fatal("trip must report true exactly once")
	}
	if got := q.List(); len(got) != 1 || got[0] != key {
		t.Fatalf("List = %v", got)
	}
}

func TestQuarantineSuccessResetsStreak(t *testing.T) {
	q := NewQuarantine(2)
	q.NoteFailure("p")
	q.NoteSuccess("p")
	if q.NoteFailure("p") {
		t.Fatal("success must reset the consecutive count")
	}
	if !q.NoteFailure("p") {
		t.Fatal("two fresh consecutive failures must trip")
	}
}

func TestQuarantineNilAndDisabled(t *testing.T) {
	var q *Quarantine
	if !q.Allow("x") || q.NoteFailure("x") || q.List() != nil {
		t.Fatal("nil quarantine must be fully permissive")
	}
	q.NoteSuccess("x")
	q.Restore([]string{"x"})
	if NewQuarantine(0) != nil {
		t.Fatal("threshold 0 must disable quarantine")
	}
}

func TestQuarantineRestore(t *testing.T) {
	q := NewQuarantine(5)
	q.Restore([]string{"poisoned"})
	if q.Allow("poisoned") {
		t.Fatal("restored point must stay quarantined")
	}
	if !q.Allow("healthy") {
		t.Fatal("restore must not block other points")
	}
}

func TestControllerStopCondition(t *testing.T) {
	c := NewController(Config{
		Stop: StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4},
	})
	// 2 successes + 2 failures: fraction 0.5, not > 0.5 — no abort.
	c.NoteOutcome(OutcomeSucceeded)
	c.NoteOutcome(OutcomeSucceeded)
	c.NoteOutcome(OutcomeFailed)
	if tripped := c.NoteOutcome(OutcomeFailed); tripped {
		t.Fatal("aborted at exactly the threshold")
	}
	// One more failure pushes the fraction over.
	if tripped := c.NoteOutcome(OutcomeFailed); !tripped {
		t.Fatal("failure fraction above threshold did not abort")
	}
	if tripped := c.NoteOutcome(OutcomeFailed); tripped {
		t.Fatal("abort must latch (report true once)")
	}
	reason, aborted := c.Aborted()
	if !aborted || reason == "" {
		t.Fatalf("aborted = %v, reason = %q", aborted, reason)
	}
	rep := c.Report(10)
	if !rep.Aborted || rep.Failed != 4 || rep.Succeeded != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Complete() {
		t.Fatal("aborted report cannot be complete")
	}
}

func TestControllerMinCompletedGuards(t *testing.T) {
	c := NewController(Config{Stop: StopPolicy{MaxFailureFraction: 0.1, MinCompleted: 5}})
	for i := 0; i < 4; i++ {
		if c.NoteOutcome(OutcomeFailed) {
			t.Fatal("aborted before MinCompleted terminal outcomes")
		}
	}
	if !c.NoteOutcome(OutcomeFailed) {
		t.Fatal("fifth terminal failure should abort")
	}
}

func TestCompletenessReportComplete(t *testing.T) {
	r := CompletenessReport{Total: 4, Succeeded: 3, Cached: 1}
	if !r.Complete() {
		t.Fatal("fully succeeded report must be complete")
	}
	r.Failed = 1
	if r.Complete() {
		t.Fatal("failed run must break completeness")
	}
	if r.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestStdSleeperCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := StdSleeper(ctx, time.Hour); err == nil {
		t.Fatal("cancelled sleep must return the context error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled sleep blocked")
	}
}

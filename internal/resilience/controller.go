package resilience

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fairflow/internal/appendlog"
)

// StopPolicy is the campaign-level circuit breaker: when the fraction of
// terminally failed runs exceeds MaxFailureFraction, the campaign aborts
// gracefully — undispatched runs are reported skipped and the engine returns
// a completeness report instead of grinding through a doomed sweep.
type StopPolicy struct {
	// MaxFailureFraction in (0, 1]; 0 disables the breaker.
	MaxFailureFraction float64 `json:"max_failure_fraction,omitempty"`
	// MinCompleted is how many terminal outcomes must accumulate before the
	// fraction is trusted (default 5) — a sweep must not abort because its
	// very first run failed.
	MinCompleted int `json:"min_completed,omitempty"`
}

// Config assembles the resilience stack for one engine.
type Config struct {
	// Retry bounds and paces re-execution of transiently failed runs.
	Retry RetryPolicy
	// QuarantineAfter side-lines a sweep point after this many consecutive
	// failed attempts (0 disables quarantine).
	QuarantineAfter int
	// RunDeadline bounds each attempt (0 = no per-run deadline). Exceeding
	// it cancels the attempt's context and classifies the failure
	// ClassDeadline.
	RunDeadline time.Duration
	// Stop is the campaign-level abort condition.
	Stop StopPolicy
	// Journal, when non-nil, receives one record per attempt transition —
	// the crash-resume substrate.
	Journal *Journal
	// Sleep paces retries (nil → StdSleeper). The simulated engine ignores
	// it and schedules virtual-time events instead.
	Sleep Sleeper
	// Seed drives the backoff jitter (deterministic campaigns stay
	// deterministic).
	Seed int64
	// Restore pre-quarantines sweep points from a previous process's
	// journal — resume carries the crash-era quarantine decisions forward
	// instead of re-burning attempts on known-poisoned points. Ignored
	// when QuarantineAfter leaves the breaker disabled.
	Restore []string
	// Now stamps journal records (nil → time.Now). The simulated engine
	// points it at virtual time.
	Now func() time.Time
}

// Controller is one campaign's live resilience state: the quarantine
// breaker, the jitter stream, the outcome tally, and the abort latch. It is
// safe for concurrent use by the engine's workers.
type Controller struct {
	cfg Config
	q   *Quarantine

	mu  sync.Mutex
	rng *rand.Rand
	// tally is the report under construction; Report adds Total and Points.
	tally CompletenessReport
}

// Controller builds the runtime for one campaign execution from an engine's
// optional configuration: nil is the zero Config — one attempt per run, no
// quarantine, no journal, no stop condition.
func (cfg *Config) Controller() *Controller {
	if cfg == nil {
		return NewController(Config{})
	}
	return NewController(*cfg)
}

// NewController builds the runtime for one campaign execution.
func NewController(cfg Config) *Controller {
	q := NewQuarantine(cfg.QuarantineAfter)
	q.Restore(cfg.Restore)
	return &Controller{
		cfg: cfg,
		q:   q,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Attempts returns the per-run attempt cap.
func (c *Controller) Attempts() int { return c.cfg.Retry.Attempts() }

// RunDeadline returns the per-attempt deadline (0 = none).
func (c *Controller) RunDeadline() time.Duration { return c.cfg.RunDeadline }

// Quarantine exposes the campaign's breaker (nil when disabled).
func (c *Controller) Quarantine() *Quarantine { return c.q }

// Backoff draws the next retry delay from the policy's jitter stream.
func (c *Controller) Backoff(prev time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Retry.Backoff(prev, c.rng)
}

// Sleep pauses between attempts using the configured sleeper.
func (c *Controller) Sleep(ctx context.Context, d time.Duration) error {
	if c.cfg.Sleep != nil {
		return c.cfg.Sleep(ctx, d)
	}
	return StdSleeper(ctx, d)
}

// now stamps a journal record.
func (c *Controller) now() time.Time {
	if c.cfg.Now != nil {
		return c.cfg.Now()
	}
	return time.Now()
}

// SetNow repoints the journal clock (the simulated engine drives it from
// virtual time).
func (c *Controller) SetNow(now func() time.Time) { c.cfg.Now = now }

// Record builds the journal record of one attempt transition, stamped with
// the controller's clock at the moment of the decision (worker names the
// leaseholder on the remote coordinator's transitions, "" elsewhere). The
// engine posts it to the campaign's recorder, which writes it.
func (c *Controller) Record(run, point string, attempt int, event, worker string, class Class, err error) AttemptRecord {
	rec := AttemptRecord{
		Run: run, Point: point, Attempt: attempt,
		Event: event, Class: class, Time: c.now(), Worker: worker,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}

// Journal exposes the configured attempt journal (nil when none) — the
// campaign's recorder writes it.
func (c *Controller) Journal() *Journal { return c.cfg.Journal }

// Outcome kinds for NoteOutcome.
const (
	OutcomeSucceeded   = "succeeded"
	OutcomeCached      = "cached"
	OutcomeFailed      = "failed"
	OutcomeQuarantined = "quarantined"
	OutcomeSkipped     = "skipped"
)

// NoteOutcome tallies one run's terminal outcome and evaluates the stop
// condition; it returns true when this outcome tripped the campaign abort
// (exactly once).
func (c *Controller) NoteOutcome(kind string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &c.tally
	switch kind {
	case OutcomeSucceeded:
		t.Succeeded++
	case OutcomeCached:
		t.Cached++
	case OutcomeFailed:
		t.Failed++
	case OutcomeQuarantined:
		t.Quarantined++
	case OutcomeSkipped:
		t.Skipped++
	}
	if t.Aborted || c.cfg.Stop.MaxFailureFraction <= 0 {
		return false
	}
	min := c.cfg.Stop.MinCompleted
	if min <= 0 {
		min = 5
	}
	terminal := t.Succeeded + t.Cached + t.Failed + t.Quarantined
	if terminal < min {
		return false
	}
	frac := float64(t.Failed+t.Quarantined) / float64(terminal)
	if frac > c.cfg.Stop.MaxFailureFraction {
		t.Aborted = true
		t.Reason = fmt.Sprintf("failure fraction %.2f exceeds %.2f after %d runs",
			frac, c.cfg.Stop.MaxFailureFraction, terminal)
		return true
	}
	return false
}

// NoteRetry counts one retry (for the report; the engines also export it as
// a metric).
func (c *Controller) NoteRetry() {
	c.mu.Lock()
	c.tally.Retries++
	c.mu.Unlock()
}

// Abort latches the campaign aborted with the given reason (first reason
// wins).
func (c *Controller) Abort(reason string) {
	c.mu.Lock()
	if !c.tally.Aborted {
		c.tally.Aborted, c.tally.Reason = true, reason
	}
	c.mu.Unlock()
}

// Aborted reports the abort latch and its reason.
func (c *Controller) Aborted() (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally.Reason, c.tally.Aborted
}

// CompletenessReport is the campaign's final accounting: every run ends in
// exactly one bucket, so a degraded sweep is an explicit artifact — the
// operator sees what completed, what was side-lined, and why the campaign
// stopped — rather than a hung process or an undifferentiated failure.
type CompletenessReport struct {
	Total       int      `json:"total"`
	Succeeded   int      `json:"succeeded"`
	Cached      int      `json:"cached"`
	Failed      int      `json:"failed"`
	Quarantined int      `json:"quarantined"`
	Skipped     int      `json:"skipped"`
	Retries     int      `json:"retries"`
	Aborted     bool     `json:"aborted"`
	Reason      string   `json:"reason,omitempty"`
	Points      []string `json:"quarantined_points,omitempty"`
}

// Complete reports whether every run finished successfully.
func (r CompletenessReport) Complete() bool {
	return !r.Aborted && r.Failed == 0 && r.Quarantined == 0 && r.Skipped == 0 &&
		r.Succeeded+r.Cached == r.Total
}

// String renders the one-line operator summary.
func (r CompletenessReport) String() string {
	s := fmt.Sprintf("%d/%d complete (%d executed, %d cached), %d failed, %d quarantined, %d skipped, %d retries",
		r.Succeeded+r.Cached, r.Total, r.Succeeded, r.Cached, r.Failed, r.Quarantined, r.Skipped, r.Retries)
	if r.Aborted {
		s += " — ABORTED: " + r.Reason
	}
	return s
}

// WriteFile writes the report as JSON through the atomic temp+rename path.
func (r CompletenessReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return appendlog.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// Report renders the controller's tally for a campaign of total runs.
func (c *Controller) Report(total int) CompletenessReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.tally
	r.Total, r.Points = total, c.q.List()
	return r
}

// Package ckpt implements the checkpoint-restart middleware of the paper's
// Section V-B: checkpointing as a workflow component with explicit,
// model-driven policies instead of a hard-coded "every x timesteps"
// constant. Policies consume the observable state the paper's I/O middleware
// exposes — elapsed runtime, accumulated checkpoint I/O cost, time since the
// last checkpoint — and decide, after each timestep, whether to write.
//
// The headline policy is OverheadBudget: "applications declare the maximum
// allowable checkpointing I/O overhead as a percentage of the total
// application runtime; the I/O middleware issues a checkpoint only as long
// as the current I/O overhead is within the preset value."
package ckpt

import (
	"fmt"
)

// State is what a policy can observe when deciding after a completed step.
type State struct {
	// Step is the 1-based index of the step that just completed.
	Step int
	// TotalSteps is the planned run length.
	TotalSteps int
	// Elapsed is total wall time so far (compute + checkpoint I/O).
	Elapsed float64
	// CheckpointTime is the accumulated wall time spent in checkpoint I/O.
	CheckpointTime float64
	// LastCheckpointStep is the step after which the last checkpoint was
	// written (0 = none yet).
	LastCheckpointStep int
	// SinceCheckpoint is wall time since the last checkpoint completed (or
	// since the run began).
	SinceCheckpoint float64
	// LastWriteSeconds is the duration of the most recent checkpoint write
	// (0 = none yet).
	LastWriteSeconds float64
}

// Policy decides whether to checkpoint after a step.
type Policy interface {
	// ShouldCheckpoint reports whether to write a checkpoint now.
	ShouldCheckpoint(s State) bool
	// Name identifies the policy in reports and provenance.
	Name() string
}

// FixedInterval is the traditional baseline: checkpoint every Every steps.
// The interval is chosen beforehand from assumed system characteristics —
// the very coupling to "the failure rate of the underlying system and the
// overhead of checkpoint I/O" the paper calls out as non-reusable.
type FixedInterval struct {
	Every int
}

// ShouldCheckpoint implements Policy.
func (p FixedInterval) ShouldCheckpoint(s State) bool {
	return p.Every > 0 && s.Step%p.Every == 0
}

// Name implements Policy.
func (p FixedInterval) Name() string { return fmt.Sprintf("fixed-interval(%d)", p.Every) }

// OverheadBudget writes a checkpoint whenever doing so keeps the I/O
// overhead within MaxOverhead of total runtime. The projected cost of the
// next write is estimated from the last observed write (first write is
// always permitted: with no observations the policy must explore).
type OverheadBudget struct {
	// MaxOverhead is the allowed fraction, e.g. 0.10 for 10%.
	MaxOverhead float64
}

// ShouldCheckpoint implements Policy.
func (p OverheadBudget) ShouldCheckpoint(s State) bool {
	if p.MaxOverhead <= 0 {
		return false
	}
	if s.LastWriteSeconds == 0 {
		// No cost observation yet; write once to learn it.
		return true
	}
	projected := (s.CheckpointTime + s.LastWriteSeconds) / (s.Elapsed + s.LastWriteSeconds)
	return projected <= p.MaxOverhead
}

// Name implements Policy.
func (p OverheadBudget) Name() string {
	return fmt.Sprintf("overhead-budget(%.0f%%)", p.MaxOverhead*100)
}

// MinGap forces a checkpoint whenever more than Gap seconds passed since the
// last one, regardless of cost — the paper's "further fine-tuning may be
// done to ensure a certain minimum frequency of checkpointing".
type MinGap struct {
	Gap float64
}

// ShouldCheckpoint implements Policy.
func (p MinGap) ShouldCheckpoint(s State) bool {
	return p.Gap > 0 && s.SinceCheckpoint >= p.Gap
}

// Name implements Policy.
func (p MinGap) Name() string { return fmt.Sprintf("min-gap(%.0fs)", p.Gap) }

// FailureAware forces a checkpoint when the last write cost abnormally
// exceeds the typical cost — the paper's observation that "an abnormally
// high I/O cost may be indicative of a system more prone to failure, and
// thus force a checkpoint to be issued".
type FailureAware struct {
	// SpikeFactor is the multiple of the running-average write time that
	// counts as abnormal (e.g. 3).
	SpikeFactor float64

	// mean tracks the running average of observed write times.
	observations int
	mean         float64
}

// Observe feeds a completed write duration into the running average.
func (p *FailureAware) Observe(writeSeconds float64) {
	p.observations++
	p.mean += (writeSeconds - p.mean) / float64(p.observations)
}

// ShouldCheckpoint implements Policy.
func (p *FailureAware) ShouldCheckpoint(s State) bool {
	if p.SpikeFactor <= 0 || p.observations < 2 || s.LastWriteSeconds == 0 {
		return false
	}
	return s.LastWriteSeconds > p.SpikeFactor*p.mean
}

// Name implements Policy.
func (p *FailureAware) Name() string { return fmt.Sprintf("failure-aware(×%.1f)", p.SpikeFactor) }

// AnyOf composes policies with OR: checkpoint if any member fires. This is
// how the budget policy gets a minimum-frequency floor or a failure-aware
// override, matching the paper's "policies can then be constructed using a
// combination of some or all of the exposed parameters".
type AnyOf struct {
	Policies []Policy
}

// ShouldCheckpoint implements Policy.
func (p AnyOf) ShouldCheckpoint(s State) bool {
	for _, m := range p.Policies {
		if m.ShouldCheckpoint(s) {
			return true
		}
	}
	return false
}

// Name implements Policy.
func (p AnyOf) Name() string {
	name := "any-of("
	for i, m := range p.Policies {
		if i > 0 {
			name += ", "
		}
		name += m.Name()
	}
	return name + ")"
}

package ckpt

import (
	"fmt"
	"time"
)

// App is what the real-execution checkpoint middleware needs from an
// application: stepping, and snapshot/restore of full state. The simapp
// Gray–Scott solver satisfies this shape via a thin adapter.
type App interface {
	// Step advances the application one timestep.
	Step()
	// Snapshot captures restartable state.
	Snapshot() (any, error)
	// Restore resets the application to a snapshot.
	Restore(snapshot any) error
}

// Clock abstracts time for the real runner so tests can be deterministic.
type Clock func() time.Time

// RealRunner drives a real (in-process) application under a checkpoint
// policy, measuring actual wall time — the same middleware contract as the
// simulated driver, against live code instead of the cluster model.
type RealRunner struct {
	App    App
	Policy Policy
	// Keep bounds retained snapshots (oldest evicted; ≥1, default 1).
	Keep int
	// Now is the time source (default time.Now).
	Now Clock
}

// RealStats reports a real run.
type RealStats struct {
	Policy             string
	StepsCompleted     int
	CheckpointsWritten int
	CheckpointSteps    []int
	ComputeSeconds     float64
	CheckpointSeconds  float64
}

// Retained is one kept snapshot.
type Retained struct {
	Step     int
	Snapshot any
}

// Run executes steps timesteps, consulting the policy after each; snapshots
// are taken synchronously (checkpoint time is the snapshot cost). It
// returns the stats and the retained snapshots, newest last.
func (r *RealRunner) Run(steps int) (*RealStats, []Retained, error) {
	if r.App == nil || r.Policy == nil {
		return nil, nil, fmt.Errorf("ckpt: real runner needs an app and a policy")
	}
	if steps < 1 {
		return nil, nil, fmt.Errorf("ckpt: need ≥1 step")
	}
	keep := r.Keep
	if keep < 1 {
		keep = 1
	}
	now := r.Now
	if now == nil {
		now = time.Now
	}

	stats := &RealStats{Policy: r.Policy.Name()}
	fa, faOK := r.Policy.(*FailureAware)
	var retained []Retained
	start := now()
	lastCkptEnd := start
	var lastWrite float64

	for step := 1; step <= steps; step++ {
		computeStart := now()
		r.App.Step()
		stats.StepsCompleted++
		stats.ComputeSeconds += now().Sub(computeStart).Seconds()

		st := State{
			Step:               step,
			TotalSteps:         steps,
			Elapsed:            now().Sub(start).Seconds(),
			CheckpointTime:     stats.CheckpointSeconds,
			LastCheckpointStep: lastStep(stats.CheckpointSteps),
			SinceCheckpoint:    now().Sub(lastCkptEnd).Seconds(),
			LastWriteSeconds:   lastWrite,
		}
		if !r.Policy.ShouldCheckpoint(st) {
			continue
		}
		writeStart := now()
		snap, err := r.App.Snapshot()
		if err != nil {
			return nil, nil, fmt.Errorf("ckpt: snapshot at step %d: %w", step, err)
		}
		elapsed := now().Sub(writeStart).Seconds()
		stats.CheckpointSeconds += elapsed
		stats.CheckpointsWritten++
		stats.CheckpointSteps = append(stats.CheckpointSteps, step)
		lastWrite = elapsed
		lastCkptEnd = now()
		if faOK {
			fa.Observe(elapsed)
		}
		retained = append(retained, Retained{Step: step, Snapshot: snap})
		if len(retained) > keep {
			retained = retained[len(retained)-keep:]
		}
	}
	return stats, retained, nil
}

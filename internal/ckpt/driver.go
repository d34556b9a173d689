package ckpt

import (
	"fmt"

	"fairflow/internal/hpcsim"
	"fairflow/internal/simapp"
)

// RunStats is the outcome of one simulated application run under a
// checkpoint policy — the quantities the paper's Figures 3 and 4 report.
type RunStats struct {
	Policy string
	// CheckpointsWritten is the number of checkpoints that reached storage
	// (paper Fig. 3/4 y-axis; max = Steps).
	CheckpointsWritten int
	// StepsCompleted is how many timesteps ran before walltime.
	StepsCompleted int
	// ComputeSeconds, CheckpointSeconds partition the wall time.
	ComputeSeconds    float64
	CheckpointSeconds float64
	// TotalSeconds is total wall time of the run.
	TotalSeconds float64
	// CheckpointSteps lists the step indices after which a checkpoint was
	// written.
	CheckpointSteps []int
	// Expired marks a run cut off by the allocation walltime.
	Expired bool
}

// OverheadFraction is checkpoint I/O time over total runtime.
func (r RunStats) OverheadFraction() float64 {
	if r.TotalSeconds <= 0 {
		return 0
	}
	return r.CheckpointSeconds / r.TotalSeconds
}

// RunConfig drives one simulated run.
type RunConfig struct {
	// Profile is the application shape (steps, nodes, payload, compute
	// noise).
	Profile simapp.Profile
	// Policy decides checkpoint writes.
	Policy Policy
	// walltime is the batch job limit in seconds; zero means the runner's
	// default (RunOnCluster 4×, RunWithFailures 20× the pure-compute
	// time). A test seam: only TestRunOnClusterWalltimeExpiry shortens it.
	walltime float64
}

// RunOnCluster executes the profiled application as a batch job on the
// simulated cluster: for each timestep, a compute phase (all nodes busy),
// then a policy decision, then — if the policy fires — a blocking checkpoint
// write striped over all the job's nodes through the shared filesystem.
// The filesystem's wandering external load is what makes checkpoint cost,
// and therefore the overhead-budget policy's behaviour, vary between runs.
func RunOnCluster(cluster *hpcsim.Cluster, cfg RunConfig) (*RunStats, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("ckpt: nil policy")
	}
	stepTimes, err := cfg.Profile.StepTimes()
	if err != nil {
		return nil, err
	}
	if cfg.walltime <= 0 {
		// Generous default: 4× the expected pure-compute time.
		total := 0.0
		for _, t := range stepTimes {
			total += t
		}
		cfg.walltime = 4 * total
	}

	stats := &RunStats{Policy: cfg.Policy.Name()}
	fa, faOK := cfg.Policy.(*FailureAware)

	finished := false
	completed := false
	_, err = cluster.Submit(hpcsim.JobSpec{
		Name:     "gray-scott",
		Nodes:    cfg.Profile.Nodes,
		Walltime: cfg.walltime,
		OnStart: func(a *hpcsim.Allocation) {
			sim := cluster.Sim()
			start := sim.Now()
			var lastCkptEnd = start
			var lastWrite float64

			var runStep func(step int)
			finish := func() {
				if finished {
					return
				}
				finished = true
				completed = true
				stats.TotalSeconds = sim.Now() - start
				a.Release()
			}
			runStep = func(step int) {
				if finished {
					return
				}
				if step >= len(stepTimes) {
					finish()
					return
				}
				compute := stepTimes[step]
				if a.Remaining() <= compute {
					stats.Expired = true
					finish()
					return
				}
				sim.After(compute, func() {
					if finished {
						return
					}
					stats.StepsCompleted++
					stats.ComputeSeconds += compute
					st := State{
						Step:               step + 1,
						TotalSteps:         len(stepTimes),
						Elapsed:            sim.Now() - start,
						CheckpointTime:     stats.CheckpointSeconds,
						LastCheckpointStep: lastStep(stats.CheckpointSteps),
						SinceCheckpoint:    sim.Now() - lastCkptEnd,
						LastWriteSeconds:   lastWrite,
					}
					if cfg.Policy.ShouldCheckpoint(st) {
						a.WriteFS(len(a.Nodes()), cfg.Profile.BytesPerCheckpoint, func(elapsed float64) {
							if finished {
								return
							}
							stats.CheckpointSeconds += elapsed
							stats.CheckpointsWritten++
							stats.CheckpointSteps = append(stats.CheckpointSteps, step+1)
							lastWrite = elapsed
							lastCkptEnd = sim.Now()
							if faOK {
								fa.Observe(elapsed)
							}
							runStep(step + 1)
						})
					} else {
						runStep(step + 1)
					}
				})
			}
			runStep(0)
		},
		OnEnd: func(j *hpcsim.Job) {
			if j.State == hpcsim.JobExpired && !finished {
				finished = true
				completed = true
				stats.Expired = true
				stats.TotalSeconds = j.Ended - j.Started
			}
		},
	})
	if err != nil {
		return nil, err
	}

	cluster.Sim().Run()
	if !completed {
		return nil, fmt.Errorf("ckpt: run never completed (job stuck in queue?)")
	}
	return stats, nil
}

func lastStep(steps []int) int {
	if len(steps) == 0 {
		return 0
	}
	return steps[len(steps)-1]
}

package ckpt

import (
	"fmt"
	"math/rand"

	"fairflow/internal/expt"
	"fairflow/internal/hpcsim"
)

// maxFailures aborts a pathological run after this many failures.
const maxFailures = 1000

// FailureRunConfig extends RunConfig with an application-level failure
// process: failures arrive with exponential inter-arrival times (mean MTTF)
// and throw the application back to its last stored checkpoint — the
// scenario checkpointing exists for, and the axis along which the policies
// actually trade off (frequent checkpoints: more I/O overhead, less lost
// work; rare checkpoints: the reverse).
type FailureRunConfig struct {
	RunConfig
	// MTTF is the mean time between failures in seconds (0 disables).
	MTTF float64
	// RestartLatency is the fixed cost of coming back up after a failure
	// (re-queue, reload, re-initialise) before recomputation starts.
	RestartLatency float64
	// FailureSeed drives the failure process independently of the app and
	// filesystem streams.
	FailureSeed int64
}

// FailureRunStats extends RunStats with failure accounting.
type FailureRunStats struct {
	RunStats
	// Failures is how many failures struck.
	Failures int
	// LostStepWork counts recomputed steps (work done, destroyed, redone).
	LostStepWork int
	// RestartSeconds is time spent in restart latency.
	RestartSeconds float64
}

// RunWithFailures executes the profiled application under the policy while
// failures strike: at each failure the application loses all steps since
// its last checkpoint and resumes from there after RestartLatency. The run
// ends when all steps complete or the walltime expires.
func RunWithFailures(cluster *hpcsim.Cluster, cfg FailureRunConfig) (*FailureRunStats, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("ckpt: nil policy")
	}
	stepTimes, err := cfg.Profile.StepTimes()
	if err != nil {
		return nil, err
	}
	if cfg.walltime <= 0 {
		total := 0.0
		for _, t := range stepTimes {
			total += t
		}
		// Failures inflate runtime; leave generous headroom.
		cfg.walltime = 20 * total
	}

	stats := &FailureRunStats{RunStats: RunStats{Policy: cfg.Policy.Name()}}
	fa, faOK := cfg.Policy.(*FailureAware)
	frng := rand.New(rand.NewSource(cfg.FailureSeed))
	nextFailureIn := func() float64 {
		if cfg.MTTF <= 0 {
			return 1e18
		}
		return expt.Exponential(frng, cfg.MTTF)
	}

	finished := false
	completed := false
	_, err = cluster.Submit(hpcsim.JobSpec{
		Name:     "gray-scott-ft",
		Nodes:    cfg.Profile.Nodes,
		Walltime: cfg.walltime,
		OnStart: func(a *hpcsim.Allocation) {
			sim := cluster.Sim()
			start := sim.Now()
			lastCkptEnd := start
			lastCkptStep := 0
			var lastWrite float64
			failAt := sim.Now() + nextFailureIn()

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
			// maybeFail checks whether a failure lands before `until`; if
			// so it rewinds to the last checkpoint and returns the step to
			// resume from, scheduling the continuation itself.
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
				if sim.Now()+compute >= failAt && stats.Failures < maxFailures {
					// Failure strikes during this step's computation: all
					// work since the last checkpoint is lost.
					stats.Failures++
					lost := step - lastCkptStep
					stats.LostStepWork += lost
					delay := (failAt - sim.Now()) + cfg.RestartLatency
					stats.RestartSeconds += cfg.RestartLatency
					failAt = failAt + cfg.RestartLatency + nextFailureIn()
					resume := lastCkptStep
					sim.After(delay, func() { runStep(resume) })
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
						LastCheckpointStep: lastCkptStep,
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
							lastCkptStep = step + 1
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
		return nil, fmt.Errorf("ckpt: failure run never completed")
	}
	return stats, nil
}

// FailurePolicyOutcome aggregates one policy's behaviour under failures.
type FailurePolicyOutcome struct {
	Policy        string
	MeanTotal     float64 // mean time-to-solution (s)
	MeanLostSteps float64
	MeanCkpts     float64
	MeanFailures  float64
	ExpiredRuns   int
}

// CompareUnderFailures runs each policy through `runs` failure-laden
// executions on identically seeded clusters and aggregates time-to-solution
// — the extension ablation: which policy finishes fastest when the system
// actually fails.
func CompareUnderFailures(scfg SweepConfig, policies []Policy, mttf, restartLatency float64, runs int) ([]FailurePolicyOutcome, error) {
	out := make([]FailurePolicyOutcome, 0, len(policies))
	for _, pol := range policies {
		agg := FailurePolicyOutcome{Policy: pol.Name()}
		for run := 0; run < runs; run++ {
			seed := expt.SplitSeed(scfg.Seed, 31_000+run)
			nodes := scfg.ClusterNodes
			if nodes < scfg.Profile.Nodes {
				nodes = scfg.Profile.Nodes
			}
			sim := hpcsim.New()
			cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{Nodes: nodes, FS: scfg.FS}, expt.SplitSeed(seed, 1))
			profile := scfg.Profile
			profile.Seed = expt.SplitSeed(seed, 2)
			fcfg := FailureRunConfig{
				RunConfig:      RunConfig{Profile: profile, Policy: freshPolicy(pol)},
				MTTF:           mttf,
				RestartLatency: restartLatency,
				FailureSeed:    expt.SplitSeed(seed, 3),
			}
			stats, err := RunWithFailures(cluster, fcfg)
			if err != nil {
				return nil, err
			}
			agg.MeanTotal += stats.TotalSeconds
			agg.MeanLostSteps += float64(stats.LostStepWork)
			agg.MeanCkpts += float64(stats.CheckpointsWritten)
			agg.MeanFailures += float64(stats.Failures)
			if stats.Expired {
				agg.ExpiredRuns++
			}
		}
		n := float64(runs)
		agg.MeanTotal /= n
		agg.MeanLostSteps /= n
		agg.MeanCkpts /= n
		agg.MeanFailures /= n
		out = append(out, agg)
	}
	return out, nil
}

// freshPolicy clones stateful policies so repeated runs do not share
// learning state (FailureAware keeps a running mean).
func freshPolicy(p Policy) Policy {
	if fa, ok := p.(*FailureAware); ok {
		return &FailureAware{SpikeFactor: fa.SpikeFactor}
	}
	return p
}

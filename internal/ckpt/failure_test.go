package ckpt

import (
	"testing"

	"fairflow/internal/hpcsim"
)

func TestRunWithFailuresNoFailuresMatchesBaseline(t *testing.T) {
	// MTTF disabled: the failure driver must behave like the plain driver.
	mk := func() *hpcsim.Cluster {
		sim := hpcsim.New()
		return hpcsim.NewCluster(sim, hpcsim.ClusterConfig{Nodes: 8, FS: testFS()}, 22)
	}
	plain, err := RunOnCluster(mk(), RunConfig{Profile: fastProfile(22), Policy: FixedInterval{Every: 5}})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := RunWithFailures(mk(), FailureRunConfig{
		RunConfig: RunConfig{Profile: fastProfile(22), Policy: FixedInterval{Every: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ft.Failures != 0 || ft.LostStepWork != 0 {
		t.Fatalf("phantom failures: %+v", ft)
	}
	if ft.CheckpointsWritten != plain.CheckpointsWritten || ft.StepsCompleted != plain.StepsCompleted {
		t.Fatalf("failure-free run diverged: %d/%d vs %d/%d",
			ft.CheckpointsWritten, ft.StepsCompleted, plain.CheckpointsWritten, plain.StepsCompleted)
	}
}

func TestRunWithFailuresRecovers(t *testing.T) {
	sim := hpcsim.New()
	cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{Nodes: 8, FS: testFS()}, 6)
	stats, err := RunWithFailures(cluster, FailureRunConfig{
		RunConfig:      RunConfig{Profile: fastProfile(7), Policy: FixedInterval{Every: 2}},
		MTTF:           200, // several failures over a ~700s run
		RestartLatency: 30,
		FailureSeed:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Failures == 0 {
		t.Fatal("no failures injected with MTTF=200")
	}
	if stats.Expired {
		t.Fatal("run expired despite generous walltime")
	}
	// All 20 logical steps completed despite failures.
	if got := lastStep(stats.CheckpointSteps); got != 20 {
		t.Fatalf("final checkpoint at step %d", got)
	}
	if stats.RestartSeconds != float64(stats.Failures)*30 {
		t.Fatalf("restart accounting: %v for %d failures", stats.RestartSeconds, stats.Failures)
	}
	// Recomputed steps count toward StepsCompleted, so it exceeds 20.
	if stats.StepsCompleted < 20 {
		t.Fatalf("steps completed = %d", stats.StepsCompleted)
	}
}

func TestRunWithFailuresLostWorkBoundedByCheckpointSpacing(t *testing.T) {
	sim := hpcsim.New()
	cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{Nodes: 8, FS: testFS()}, 10)
	stats, err := RunWithFailures(cluster, FailureRunConfig{
		RunConfig:      RunConfig{Profile: fastProfile(11), Policy: FixedInterval{Every: 2}},
		MTTF:           300,
		RestartLatency: 10,
		FailureSeed:    12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With checkpoints every 2 steps, each failure loses at most 2 steps
	// (the current in-flight step plus at most one unsaved completed step).
	if stats.Failures > 0 && stats.LostStepWork > 2*stats.Failures {
		t.Fatalf("lost %d steps over %d failures with every-2 checkpoints",
			stats.LostStepWork, stats.Failures)
	}
}

func TestCompareUnderFailuresTradeoff(t *testing.T) {
	scfg := SweepConfig{ClusterNodes: 8, FS: testFS(), Profile: fastProfile(0), Seed: 31}
	policies := []Policy{
		FixedInterval{Every: 19},          // almost never checkpoints
		FixedInterval{Every: 2},           // checkpoints constantly
		OverheadBudget{MaxOverhead: 0.15}, // adaptive
	}
	outs, err := CompareUnderFailures(scfg, policies, 400, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	rare, frequent, adaptive := outs[0], outs[1], outs[2]
	// The rare-checkpoint policy must lose far more work per failure.
	if rare.MeanFailures > 0 && frequent.MeanFailures > 0 {
		rareLossRate := rare.MeanLostSteps / rare.MeanFailures
		freqLossRate := frequent.MeanLostSteps / frequent.MeanFailures
		if rareLossRate <= freqLossRate {
			t.Fatalf("loss per failure: rare %.1f ≤ frequent %.1f", rareLossRate, freqLossRate)
		}
	}
	// The adaptive policy writes more checkpoints than the rare baseline.
	if adaptive.MeanCkpts <= rare.MeanCkpts {
		t.Fatalf("adaptive wrote %.1f ckpts vs rare %.1f", adaptive.MeanCkpts, rare.MeanCkpts)
	}
	for _, o := range outs {
		if o.ExpiredRuns > 0 {
			t.Fatalf("%s expired in %d runs", o.Policy, o.ExpiredRuns)
		}
	}
}

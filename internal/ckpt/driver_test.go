package ckpt

import (
	"testing"

	"fairflow/internal/hpcsim"
	"fairflow/internal/simapp"
)

// fastProfile is a small, quick-to-simulate application.
func fastProfile(seed int64) simapp.Profile {
	return simapp.Profile{
		Steps:              20,
		Nodes:              8,
		RanksPerNode:       4,
		BytesPerCheckpoint: 1e11, // 100 GB
		MeanStepSeconds:    30,
		StepJitter:         0.2,
		ComputeScale:       1,
		Seed:               seed,
	}
}

// testFS is a congested filesystem scaled to the fast profile: a 100 GB
// checkpoint from 8 nodes costs on the order of 10 s against 30 s compute
// steps, so budget policies have real decisions to make.
func testFS() hpcsim.FSConfig {
	return hpcsim.FSConfig{
		AggregateBW:        2e10, // 20 GB/s nominal
		PerNodeBW:          1e10,
		LoadUpdateInterval: 10,
		LoadMean:           1.0,
		LoadPersistence:    0.8,
		LoadJitter:         0.4,
		BurstProb:          0.05,
	}
}

func newTestCluster(seed int64) *hpcsim.Cluster {
	sim := hpcsim.New()
	return hpcsim.NewCluster(sim, hpcsim.ClusterConfig{Nodes: 8, FS: testFS()}, seed+1)
}

func TestRunOnClusterFixedInterval(t *testing.T) {
	stats, err := RunOnCluster(newTestCluster(1), RunConfig{
		Profile: fastProfile(2),
		Policy:  FixedInterval{Every: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsCompleted != 20 {
		t.Fatalf("steps = %d", stats.StepsCompleted)
	}
	if stats.CheckpointsWritten != 4 {
		t.Fatalf("checkpoints = %d, want 4 (every 5 of 20)", stats.CheckpointsWritten)
	}
	for i, s := range stats.CheckpointSteps {
		if s != (i+1)*5 {
			t.Fatalf("checkpoint steps: %v", stats.CheckpointSteps)
		}
	}
	if stats.Expired {
		t.Fatal("run expired unexpectedly")
	}
	if stats.TotalSeconds <= stats.ComputeSeconds {
		t.Fatal("total time should include checkpoint I/O")
	}
}

func TestRunOnClusterNilPolicy(t *testing.T) {
	if _, err := RunOnCluster(newTestCluster(1), RunConfig{Profile: fastProfile(1)}); err == nil {
		t.Fatal("nil policy accepted")
	}
}

func TestRunOnClusterWalltimeExpiry(t *testing.T) {
	stats, err := RunOnCluster(newTestCluster(3), RunConfig{
		Profile:  fastProfile(4),
		Policy:   FixedInterval{Every: 100},
		walltime: 100, // ~3 steps of 30 s
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Expired {
		t.Fatal("run should have expired")
	}
	if stats.StepsCompleted >= 20 {
		t.Fatalf("completed %d steps within 100 s walltime", stats.StepsCompleted)
	}
}

func TestOverheadBudgetPolicyHonoursBudgetInSimulation(t *testing.T) {
	stats, err := RunOnCluster(newTestCluster(5), RunConfig{
		Profile: fastProfile(6),
		Policy:  OverheadBudget{MaxOverhead: 0.10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointsWritten == 0 {
		t.Fatal("budget policy never wrote")
	}
	// Realised overhead should be near the budget; allow the one-write
	// exploration overshoot.
	if got := stats.OverheadFraction(); got > 0.20 {
		t.Fatalf("overhead %v far above 10%% budget", got)
	}
}

func TestBudgetSweepMonotone(t *testing.T) {
	cfg := SweepConfig{
		Budgets:       []float64{0.02, 0.10, 0.50},
		RunsPerBudget: 3,
		ClusterNodes:  8,
		FS:            testFS(),
		Profile:       fastProfile(0),
		Seed:          11,
	}
	pts, err := OverheadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Paper Fig. 3: checkpoints written increase with permitted overhead.
	if !(pts[0].MeanCheckpoints < pts[1].MeanCheckpoints && pts[1].MeanCheckpoints < pts[2].MeanCheckpoints) {
		t.Fatalf("not monotone: %v %v %v", pts[0].MeanCheckpoints, pts[1].MeanCheckpoints, pts[2].MeanCheckpoints)
	}
	// At a huge budget the policy approaches one checkpoint per step.
	if pts[2].MeanCheckpoints < 15 {
		t.Fatalf("50%% budget wrote only %v of 20", pts[2].MeanCheckpoints)
	}
}

func TestRunVariationSpreads(t *testing.T) {
	cfg := SweepConfig{
		ClusterNodes: 8,
		FS:           testFS(),
		Profile:      fastProfile(0),
		Seed:         13,
	}
	runs, err := RunVariation(cfg, 0.10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("runs = %d", len(runs))
	}
	min, max := runs[0].CheckpointsWritten, runs[0].CheckpointsWritten
	for _, r := range runs {
		if r.CheckpointsWritten < min {
			min = r.CheckpointsWritten
		}
		if r.CheckpointsWritten > max {
			max = r.CheckpointsWritten
		}
	}
	// Paper Fig. 4: run-to-run variation in checkpoint count at a fixed
	// budget, driven by system and application variability.
	if min == max {
		t.Fatal("no run-to-run variation at fixed budget")
	}
}

func TestComparePoliciesAblation(t *testing.T) {
	cfg := SweepConfig{ClusterNodes: 8, FS: testFS(), Profile: fastProfile(0), Seed: 17}
	cmp, err := ComparePolicies(cfg, 2, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// The fixed policy blindly writes every 2 steps (10 writes of 20 steps)
	// regardless of cost; the budget policy adapts.
	if cmp.Fixed.CheckpointsWritten != 10 {
		t.Fatalf("fixed wrote %d", cmp.Fixed.CheckpointsWritten)
	}
	if cmp.Budget.OverheadFraction() > cmp.Fixed.OverheadFraction() && cmp.Budget.OverheadFraction() > 0.2 {
		t.Fatalf("budget policy overhead %.3f worse than fixed %.3f",
			cmp.Budget.OverheadFraction(), cmp.Fixed.OverheadFraction())
	}
}

func TestRecoveryPoint(t *testing.T) {
	stats := RunStats{CheckpointSteps: []int{5, 10, 15}}
	cases := map[int]int{3: 0, 5: 5, 12: 10, 99: 15}
	for fail, want := range cases {
		if got := RecoveryPoint(stats, fail); got != want {
			t.Fatalf("RecoveryPoint(%d) = %d, want %d", fail, got, want)
		}
	}
}

func TestRunDeterministicGivenSeeds(t *testing.T) {
	run := func() *RunStats {
		stats, err := RunOnCluster(newTestCluster(21), RunConfig{
			Profile: fastProfile(22),
			Policy:  OverheadBudget{MaxOverhead: 0.10},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a.CheckpointsWritten != b.CheckpointsWritten || a.TotalSeconds != b.TotalSeconds {
		t.Fatal("identical seeds produced different runs")
	}
}

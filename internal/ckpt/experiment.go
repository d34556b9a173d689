package ckpt

import (
	"fairflow/internal/expt"
	"fairflow/internal/hpcsim"
	"fairflow/internal/simapp"
)

// SweepPoint is one budget's aggregate over repeated runs (paper Fig. 3).
type SweepPoint struct {
	Budget float64
	// MeanCheckpoints is the average checkpoints written across runs.
	MeanCheckpoints float64
	// MeanOverhead is the average realised I/O overhead fraction.
	MeanOverhead float64
	// Counts holds the per-run checkpoint counts.
	Counts []int
}

// SweepConfig parameterises the Fig. 3 experiment.
type SweepConfig struct {
	// Budgets are the permitted I/O overhead fractions to sweep.
	Budgets []float64
	// RunsPerBudget averages out filesystem noise.
	RunsPerBudget int
	// ClusterNodes sizes the simulated machine (≥ profile nodes).
	ClusterNodes int
	// FS configures the shared filesystem (zero = DefaultSummitFS).
	FS hpcsim.FSConfig
	// Profile is the application; its Seed is re-derived per run.
	Profile simapp.Profile
	// Seed drives all run-level randomness.
	Seed int64
}

// DefaultSweepConfig reproduces the paper's setup: 50 steps × 1 TB on 128
// nodes, budgets from 1% to 50%.
func DefaultSweepConfig(seed int64) SweepConfig {
	return SweepConfig{
		Budgets:       []float64{0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50},
		RunsPerBudget: 5,
		ClusterNodes:  128,
		FS:            hpcsim.CongestedFS(),
		Profile:       simapp.SummitProfile(seed),
		Seed:          seed,
	}
}

// OverheadSweep runs the Fig. 3 experiment: for each permitted overhead
// budget, run the application several times on a freshly seeded cluster and
// record how many checkpoints the OverheadBudget policy wrote. The expected
// shape is monotone growth saturating at the step count.
func OverheadSweep(cfg SweepConfig) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(cfg.Budgets))
	for bi, budget := range cfg.Budgets {
		pt := SweepPoint{Budget: budget}
		var overheads []float64
		for run := 0; run < cfg.RunsPerBudget; run++ {
			seed := expt.SplitSeed(cfg.Seed, bi*1000+run)
			stats, err := runOnce(cfg, OverheadBudget{MaxOverhead: budget}, seed)
			if err != nil {
				return nil, err
			}
			pt.Counts = append(pt.Counts, stats.CheckpointsWritten)
			pt.MeanCheckpoints += float64(stats.CheckpointsWritten)
			overheads = append(overheads, stats.OverheadFraction())
		}
		pt.MeanCheckpoints /= float64(cfg.RunsPerBudget)
		pt.MeanOverhead = expt.Mean(overheads)
		out = append(out, pt)
	}
	return out, nil
}

// RunVariation runs the Fig. 4 experiment: many runs at a single budget,
// with per-run variation in both the application's compute intensity
// ("configured to perform more/less computations") and the filesystem
// state, returning the per-run checkpoint counts whose spread the paper
// plots.
func RunVariation(cfg SweepConfig, budget float64, runs int) ([]RunStats, error) {
	out := make([]RunStats, 0, runs)
	for run := 0; run < runs; run++ {
		seed := expt.SplitSeed(cfg.Seed, 7_000_000+run)
		rng := expt.NewRNG(seed)
		runCfg := cfg
		// Vary compute intensity ±40% between runs.
		runCfg.Profile.ComputeScale = expt.ClampedNormal(rng, 1.0, 0.2, 0.6, 1.4)
		stats, err := runOnce(runCfg, OverheadBudget{MaxOverhead: budget}, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, *stats)
	}
	return out, nil
}

// PolicyComparison runs the fixed-interval baseline and the overhead-budget
// policy on identically seeded clusters — the ablation isolating the paper's
// design choice.
type PolicyComparison struct {
	Fixed  RunStats
	Budget RunStats
}

// ComparePolicies runs both policies under the same seed.
func ComparePolicies(cfg SweepConfig, every int, budget float64) (*PolicyComparison, error) {
	seed := expt.SplitSeed(cfg.Seed, 42)
	fixed, err := runOnce(cfg, FixedInterval{Every: every}, seed)
	if err != nil {
		return nil, err
	}
	budgeted, err := runOnce(cfg, OverheadBudget{MaxOverhead: budget}, seed)
	if err != nil {
		return nil, err
	}
	return &PolicyComparison{Fixed: *fixed, Budget: *budgeted}, nil
}

// runOnce builds a fresh cluster and executes one run.
func runOnce(cfg SweepConfig, policy Policy, seed int64) (*RunStats, error) {
	nodes := cfg.ClusterNodes
	if nodes < cfg.Profile.Nodes {
		nodes = cfg.Profile.Nodes
	}
	sim := hpcsim.New()
	cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{Nodes: nodes, FS: cfg.FS}, expt.SplitSeed(seed, 1))
	profile := cfg.Profile
	profile.Seed = expt.SplitSeed(seed, 2)
	return RunOnCluster(cluster, RunConfig{Profile: profile, Policy: policy})
}

// RecoveryPoint returns the step a restart would resume from if the run
// failed right after failAtStep: the latest checkpointed step ≤ failAtStep,
// or 0 (start over) if none. The difference failAtStep − RecoveryPoint is
// the recomputation the checkpoint spacing costs — the quantity more
// frequent checkpointing buys down.
func RecoveryPoint(stats RunStats, failAtStep int) int {
	best := 0
	for _, s := range stats.CheckpointSteps {
		if s <= failAtStep && s > best {
			best = s
		}
	}
	return best
}

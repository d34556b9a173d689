// Checkpoint policy example (paper Section V-B): run the same simulated
// application under three checkpoint policies — the fixed-interval
// baseline, the overhead-budget policy, and a composed budget+minimum-gap
// policy — on a Summit-scale simulated cluster with a congested shared
// filesystem.
//
//	go run ./examples/checkpoint-policy
package main

import (
	"fmt"
	"log"

	"fairflow/internal/ckpt"
	"fairflow/internal/expt"
	"fairflow/internal/hpcsim"
	"fairflow/internal/simapp"
)

func main() {
	policies := []ckpt.Policy{
		ckpt.FixedInterval{Every: 5},
		ckpt.OverheadBudget{MaxOverhead: 0.10},
		ckpt.AnyOf{Policies: []ckpt.Policy{
			ckpt.OverheadBudget{MaxOverhead: 0.05},
			ckpt.MinGap{Gap: 600},
		}},
	}

	fmt.Println("application: 50 timesteps × 1 TB checkpoints on 128 nodes (simulated Summit)")
	fmt.Printf("%-45s %12s %10s %10s\n", "policy", "checkpoints", "overhead", "wall (s)")
	for i, policy := range policies {
		seed := expt.SplitSeed(42, i)
		sim := hpcsim.New()
		cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{
			Nodes: 128, FS: hpcsim.CongestedFS(),
		}, expt.SplitSeed(seed, 1))
		profile := simapp.SummitProfile(expt.SplitSeed(seed, 2))
		stats, err := ckpt.RunOnCluster(cluster, ckpt.RunConfig{Profile: profile, Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-45s %9d/50 %9.1f%% %10.0f\n",
			stats.Policy, stats.CheckpointsWritten, stats.OverheadFraction()*100, stats.TotalSeconds)
	}

	// Recovery value: where would a failure at step 35 restart each run?
	fmt.Println("\nrecovery analysis — failure right after step 35:")
	for i, policy := range policies {
		seed := expt.SplitSeed(42, i)
		sim := hpcsim.New()
		cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{
			Nodes: 128, FS: hpcsim.CongestedFS(),
		}, expt.SplitSeed(seed, 1))
		profile := simapp.SummitProfile(expt.SplitSeed(seed, 2))
		stats, err := ckpt.RunOnCluster(cluster, ckpt.RunConfig{Profile: profile, Policy: policy})
		if err != nil {
			log.Fatal(err)
		}
		rp := ckpt.RecoveryPoint(*stats, 35)
		fmt.Printf("  %-43s restart from step %2d (recompute %d steps)\n",
			stats.Policy, rp, 35-rp)
	}

	// The real kernel behind the profile: a short Gray-Scott run with a
	// checkpoint/restore round trip proving restart-equivalence.
	gs, err := simapp.NewGrayScott(simapp.DefaultGrayScott(96, 3))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		gs.Step()
	}
	snap := gs.Snapshot()
	for i := 0; i < 20; i++ {
		gs.Step()
	}
	after := gs.Checksum()
	if err := gs.Restore(snap); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		gs.Step()
	}
	fmt.Printf("\nGray–Scott restart equivalence: recomputed checksum matches original: %v\n",
		gs.Checksum() == after)
}

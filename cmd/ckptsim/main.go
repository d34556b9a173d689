// Command ckptsim runs the checkpoint-restart experiment of paper Section
// V-B on the simulated cluster: a reaction-diffusion-shaped application
// writing checkpoints under a configurable policy, against a shared
// filesystem with wandering load.
//
//	ckptsim [-policy budget|fixed|budget+gap] [-budget 0.10] [-every 5]
//	        [-steps 50] [-nodes 128] [-tb 1.0] [-seed 1] [-runs 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"fairflow/internal/ckpt"
	"fairflow/internal/expt"
	"fairflow/internal/hpcsim"
	"fairflow/internal/simapp"
)

func main() {
	policyName := flag.String("policy", "budget", "checkpoint policy: budget|fixed|budget+gap")
	budget := flag.Float64("budget", 0.10, "max I/O overhead fraction (budget policies)")
	every := flag.Int("every", 5, "steps between checkpoints (fixed policy)")
	gap := flag.Float64("gap", 900, "max seconds between checkpoints (budget+gap)")
	steps := flag.Int("steps", 50, "application timesteps")
	nodes := flag.Int("nodes", 128, "job nodes")
	tb := flag.Float64("tb", 1.0, "checkpoint payload in terabytes")
	stepSec := flag.Float64("step-seconds", 60, "mean compute seconds per step")
	seed := flag.Int64("seed", 1, "random seed")
	runs := flag.Int("runs", 1, "independent runs (report per-run counts)")
	flag.Parse()

	var counts []float64
	for run := 0; run < *runs; run++ {
		runSeed := expt.SplitSeed(*seed, run)
		policy := buildPolicy(*policyName, *budget, *every, *gap)
		sim := hpcsim.New()
		cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{
			Nodes: *nodes, FS: hpcsim.CongestedFS(),
		}, expt.SplitSeed(runSeed, 1))
		profile := simapp.Profile{
			Steps:              *steps,
			Nodes:              *nodes,
			RanksPerNode:       32,
			BytesPerCheckpoint: *tb * 1e12,
			MeanStepSeconds:    *stepSec,
			StepJitter:         0.25,
			ComputeScale:       1,
			Seed:               expt.SplitSeed(runSeed, 2),
		}
		stats, err := ckpt.RunOnCluster(cluster, ckpt.RunConfig{Profile: profile, Policy: policy})
		if err != nil {
			fatal(err)
		}
		counts = append(counts, float64(stats.CheckpointsWritten))
		fmt.Printf("run %2d  policy=%-24s checkpoints=%2d/%d  overhead=%5.1f%%  wall=%7.0fs  steps@%v\n",
			run+1, stats.Policy, stats.CheckpointsWritten, *steps,
			stats.OverheadFraction()*100, stats.TotalSeconds, stats.CheckpointSteps)
	}
	if *runs > 1 {
		s := expt.Summarize(counts)
		fmt.Printf("across %d runs: checkpoints min=%.0f median=%.0f max=%.0f (the Fig. 4 spread)\n",
			*runs, s.Min, s.Median, s.Max)
	}
}

func buildPolicy(name string, budget float64, every int, gap float64) ckpt.Policy {
	switch name {
	case "budget":
		return ckpt.OverheadBudget{MaxOverhead: budget}
	case "fixed":
		return ckpt.FixedInterval{Every: every}
	case "budget+gap":
		return ckpt.AnyOf{Policies: []ckpt.Policy{
			ckpt.OverheadBudget{MaxOverhead: budget},
			ckpt.MinGap{Gap: gap},
		}}
	default:
		fatal(fmt.Errorf("unknown policy %q", name))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ckptsim:", err)
	os.Exit(1)
}

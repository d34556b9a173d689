// Command experiments regenerates the paper's evaluation figures (Section V)
// from this repository's implementations and emits their data as markdown.
//
// Usage:
//
//	experiments [-run all|gwas|ckpt-sweep|ckpt-runs|ckpt-failures|stream|irf|debt] [-scale full|quick] [-o file]
//
// -scale quick shrinks the workloads for CI-speed runs; -scale full runs the
// paper-scale configurations (1606-feature campaign, 50×1 TB checkpoints).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fairflow/internal/ckpt"
	"fairflow/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run: all|gwas|ckpt-sweep|ckpt-runs|ckpt-failures|stream|irf|debt")
	scale := flag.String("scale", "full", "workload scale: full|quick")
	out := flag.String("o", "", "output file (default stdout)")
	seed := flag.Int64("seed", 2021, "base random seed")
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := report(w, *run, *scale, *seed); err != nil {
		fatal(err)
	}
}

// report writes the markdown of the experiments named in run (a
// comma-separated list, or "all") at the given scale and seed.
func report(w io.Writer, run, scale string, seed int64) error {
	quick := scale == "quick"
	selected := strings.Split(run, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	fmt.Fprintf(w, "# Experiment results (%s scale, seed %d, generated %s)\n\n",
		scale, seed, time.Now().UTC().Format(time.RFC3339))

	if want("gwas") {
		section(w, "EXP-A — GWAS paste workflow (Fig. 2)")
		cfg := experiments.DefaultGWASPasteConfig()
		if quick {
			cfg.Samples, cfg.SNPs = 48, 500
		}
		cfg.Seed = seed
		res, err := experiments.RunGWASPaste(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.GWASPasteTable(res).Markdown())
	}

	if want("ckpt-sweep") {
		section(w, "EXP-B — checkpoints vs I/O overhead budget (Fig. 3)")
		cfg := experiments.CheckpointSweepConfig{Seed: seed}
		if quick {
			cfg.RunsPerBudget = 2
		}
		pts, err := experiments.RunCheckpointSweep(cfg)
		if err != nil {
			return err
		}
		fig := experiments.CheckpointSweepFigure(pts)
		fmt.Fprintln(w, fig.Markdown())
		fmt.Fprintln(w, "```")
		fmt.Fprint(w, fig.ASCIIChart(64, 16))
		fmt.Fprintln(w, "```")
	}

	if want("ckpt-runs") {
		section(w, "EXP-B — run-to-run variation at 10% budget (Fig. 4)")
		n := 10
		if quick {
			n = 5
		}
		runs, err := experiments.RunCheckpointVariation(seed, n)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.CheckpointVariationFigure(runs).Markdown())
		cmp, err := ckpt.ComparePolicies(ckpt.DefaultSweepConfig(seed), 5, 0.10)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.CheckpointVariationSummary(runs, cmp).Markdown())
	}

	if want("ckpt-failures") {
		section(w, "EXT — time-to-solution under failures (extension ablation)")
		scfg := ckpt.DefaultSweepConfig(seed)
		runs := 5
		if quick {
			runs = 2
		}
		policies := []ckpt.Policy{
			ckpt.FixedInterval{Every: 25},
			ckpt.FixedInterval{Every: 5},
			ckpt.OverheadBudget{MaxOverhead: 0.10},
			ckpt.AnyOf{Policies: []ckpt.Policy{
				ckpt.OverheadBudget{MaxOverhead: 0.05},
				ckpt.MinGap{Gap: 600},
			}},
		}
		outs, err := ckpt.CompareUnderFailures(scfg, policies, 1800, 120, runs)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "MTTF 1800 s, restart latency 120 s, 50 steps × 1 TB:")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| policy | mean time-to-solution (s) | lost step-work | checkpoints | failures |")
		fmt.Fprintln(w, "| --- | --- | --- | --- | --- |")
		for _, o := range outs {
			fmt.Fprintf(w, "| %s | %.0f | %.1f | %.1f | %.1f |\n",
				o.Policy, o.MeanTotal, o.MeanLostSteps, o.MeanCkpts, o.MeanFailures)
		}
		fmt.Fprintln(w)
	}

	if want("stream") {
		section(w, "EXP-C — virtual data queues and runtime steering (Fig. 5)")
		cfg := experiments.DefaultStreamingConfig()
		if quick {
			cfg.Items, cfg.SwapAt = 10_000, 5_000
		}
		res, err := experiments.RunStreaming(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.StreamingTable(res).Markdown())
	}

	if want("irf") {
		section(w, "EXP-D — iRF-LOOP campaign scheduling (Figs. 6 and 7)")
		cfg := experiments.DefaultIRFLoopConfig()
		if quick {
			cfg.Features, cfg.Nodes, cfg.WalltimeSeconds = 200, 10, 3600
		}
		cfg.Seed = seed
		res, err := experiments.RunIRFLoopScheduling(cfg)
		if err != nil {
			return err
		}
		utilFig := experiments.IRFUtilizationFigure(res)
		fmt.Fprintln(w, utilFig.Markdown())
		fmt.Fprintln(w, "```")
		fmt.Fprint(w, utilFig.ASCIIChart(72, 14))
		fmt.Fprintln(w, "```")
		fmt.Fprintln(w)
		fmt.Fprintln(w, experiments.IRFThroughputTable(res).Markdown())

		features, samples := 20, 300
		if quick {
			features, samples = 12, 150
		}
		net, data, err := experiments.RunRealIRFLoop(features, samples, seed)
		if err != nil {
			return err
		}
		frac := experiments.WithinBlockEdgeFraction(net, data, 30)
		fmt.Fprintf(w, "Real iRF-LOOP validation (%d features × %d samples): %.0f%% of top-30 network edges connect features of the same generator block (chance ≈ 25%%).\n\n",
			features, samples, frac*100)
	}

	if want("debt") {
		section(w, "TBL-DEBT — reusability continuum")
		points, err := experiments.RunDebtContinuum()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, experiments.DebtContinuumTable(points).Markdown())
	}
	return nil
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "## %s\n\n", title)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// Package experiments regenerates every figure of the paper's evaluation
// (Section V) from this repository's implementations. Each experiment
// returns its data as expt.Figure/expt.Table values; cmd/experiments renders
// them into EXPERIMENTS.md, and the benchmarks in the repository root drive
// the same entry points.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fairflow/internal/expt"
	"fairflow/internal/gwas"
	"fairflow/internal/skel"
	"fairflow/internal/tabular"
)

// GWASPasteConfig sizes the Section V-A experiment.
type GWASPasteConfig struct {
	// Samples is the number of per-sample column files to paste.
	Samples int
	// SNPs is the rows per column file.
	SNPs int
	// FanIn is the paste fan-in limit.
	FanIn int
	// Parallelism for campaign-parallel execution.
	Parallelism int
	// Seed drives the synthetic cohort.
	Seed int64
}

// DefaultGWASPasteConfig is a laptop-scale version of the paper's workload.
func DefaultGWASPasteConfig() GWASPasteConfig {
	return GWASPasteConfig{Samples: 192, SNPs: 2000, FanIn: 16, Parallelism: 8, Seed: 42}
}

// GWASPasteResult is the Fig. 2 data: the intervention comparison plus the
// paste-time ablation that the generated two-phase plan enables.
type GWASPasteResult struct {
	Interventions skel.InterventionCounts
	// SinglePhaseSeconds pastes all files in one pass (fan-in ignored) —
	// the "very slow if too many files are merged at once" regime.
	SinglePhaseSeconds float64
	// TwoPhaseSeconds runs the generated plan serially (one worker).
	TwoPhaseSeconds float64
	// CampaignSeconds runs the generated plan DAG-parallel: tasks release
	// the moment their own sources complete, no phase barrier.
	CampaignSeconds float64
	// Rows and Columns validate output shape.
	Rows, Columns int
	// GeneratedArtifacts is the number of files Skel generated.
	GeneratedArtifacts int
	// ManifestDigest fingerprints the generation (regeneration contract).
	ManifestDigest string
}

// RunGWASPaste executes the Section V-A experiment end to end: generate a
// synthetic cohort, write per-sample column files, generate the workflow
// with Skel, and execute single-phase, two-phase-serial and
// campaign-parallel pastes of the same data.
func RunGWASPaste(cfg GWASPasteConfig) (*GWASPasteResult, error) {
	workDir, err := os.MkdirTemp("", "gwas-paste-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	cohort, err := gwas.Generate(gwas.Config{
		SNPs: cfg.SNPs, Samples: cfg.Samples, CausalSNPs: 10,
		EffectSize: 0.8, MinMAF: 0.1, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	inputDir := filepath.Join(workDir, "columns") // the model's dataset_dir
	inputs := make([]string, cfg.Samples)
	for s := 0; s < cfg.Samples; s++ {
		inputs[s] = filepath.Join(inputDir, fmt.Sprintf("sample_%04d.txt", s))
		if err := tabular.WriteColumnBytes(inputs[s], cohort.SampleColumnBytes(s)); err != nil {
			return nil, err
		}
	}

	res := &GWASPasteResult{}
	res.Interventions, err = skel.CompareInterventions(cfg.Samples, cfg.FanIn)
	if err != nil {
		return nil, err
	}

	// Skel generation: the model is the single point of interaction. Its
	// paths are relative to workDir, where the generated scripts run, so
	// the manifest digest does not depend on where the work directory is.
	model := skel.Model{
		"dataset_dir": "columns",
		"output_file": "matrix.tsv",
		"account":     "BIF101",
		"fan_in":      cfg.FanIn,
		"parallelism": cfg.Parallelism,
	}
	manifest, artifacts, err := skel.Generate(skel.PasteTemplates(), model)
	if err != nil {
		return nil, err
	}
	if err := skel.WriteArtifacts(filepath.Join(workDir, "generated"), artifacts); err != nil {
		return nil, err
	}
	res.GeneratedArtifacts = len(artifacts)
	res.ManifestDigest = manifest.Digest()

	// Ablation 1: single-phase paste of everything at once.
	start := time.Now()
	single := filepath.Join(workDir, "single.tsv")
	if _, err := tabular.PasteFiles(single, tabular.Options{}, inputs...); err != nil {
		return nil, err
	}
	res.SinglePhaseSeconds = time.Since(start).Seconds()

	// Ablation 2: the generated two-phase plan, serial execution.
	plan, err := tabular.PlanPaste(inputs, filepath.Join(workDir, "twophase.tsv"),
		filepath.Join(workDir, "work-serial"), cfg.FanIn)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := plan.Execute(context.Background(), tabular.ExecOptions{Parallelism: 1}); err != nil {
		return nil, err
	}
	res.TwoPhaseSeconds = time.Since(start).Seconds()

	// Ablation 3: the same plan run as a DAG-parallel campaign; the row
	// count comes from the final paste task itself, not a re-scan.
	plan2, err := tabular.PlanPaste(inputs, filepath.Join(workDir, "campaign.tsv"),
		filepath.Join(workDir, "work-par"), cfg.FanIn)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	rows, err := plan2.Execute(context.Background(), tabular.ExecOptions{Parallelism: cfg.Parallelism})
	if err != nil {
		return nil, err
	}
	res.CampaignSeconds = time.Since(start).Seconds()
	res.Rows = rows
	cols, err := tabular.CountColumns(filepath.Join(workDir, "campaign.tsv"), tabular.Options{})
	if err != nil {
		return nil, err
	}
	res.Columns = cols
	if rows != cfg.SNPs || cols != cfg.Samples {
		return nil, fmt.Errorf("experiments: pasted matrix is %d×%d, want %d×%d", rows, cols, cfg.SNPs, cfg.Samples)
	}
	return res, nil
}

// GWASPasteTable renders the Fig. 2 comparison as a table.
func GWASPasteTable(r *GWASPasteResult) *expt.Table {
	t := expt.NewTable("Fig. 2 — manual vs model-driven GWAS paste workflow",
		"approach", "user interventions per re-run", "paste wall time (s)", "notes")
	t.AddRow("traditional manual script", r.Interventions.Manual,
		fmt.Sprintf("%.3f", r.SinglePhaseSeconds),
		fmt.Sprintf("%d sub-jobs hand-managed; single-phase paste", r.Interventions.SubJobs))
	t.AddRow("skel two-phase (serial)", r.Interventions.ModelDriven,
		fmt.Sprintf("%.3f", r.TwoPhaseSeconds), "generated plan, one submission")
	t.AddRow("skel + cheetah campaign (parallel)", r.Interventions.ModelDriven,
		fmt.Sprintf("%.3f", r.CampaignSeconds),
		fmt.Sprintf("%d generated artifacts, digest %.12s…", r.GeneratedArtifacts, r.ManifestDigest))
	return t
}

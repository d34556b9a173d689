package experiments

import (
	"strings"
	"testing"
)

func TestGWASPasteEndToEnd(t *testing.T) {
	cfg := GWASPasteConfig{Samples: 24, SNPs: 200, FanIn: 8, Parallelism: 4, Seed: 1}
	res, err := RunGWASPaste(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 200 || res.Columns != 24 {
		t.Fatalf("matrix shape %d×%d", res.Rows, res.Columns)
	}
	if res.Interventions.Manual <= res.Interventions.ModelDriven {
		t.Fatal("manual workflow should cost more interventions")
	}
	if res.GeneratedArtifacts != 4 || res.ManifestDigest == "" {
		t.Fatalf("generation: %d artifacts, digest %q", res.GeneratedArtifacts, res.ManifestDigest)
	}
	table := GWASPasteTable(res)
	md := table.Markdown()
	if !strings.Contains(md, "traditional manual script") || !strings.Contains(md, "campaign") {
		t.Fatalf("table markdown:\n%s", md)
	}
}

// TestGWASPasteDigestIndependentOfWorkDir: at a fixed seed the Fig. 2
// manifest digest is the same whichever directory the experiment runs in
// (each run makes its own), so the digest in results_raw.md can be reproduced.
func TestGWASPasteDigestIndependentOfWorkDir(t *testing.T) {
	var digests []string
	for i := 0; i < 2; i++ {
		res, err := RunGWASPaste(GWASPasteConfig{Samples: 8, SNPs: 20, FanIn: 4, Parallelism: 2,
			Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.ManifestDigest)
	}
	if digests[0] != digests[1] {
		t.Fatalf("manifest digests %s and %s differ between work directories", digests[0], digests[1])
	}
}

func TestGWASPasteRejectsBadConfig(t *testing.T) {
	if _, err := RunGWASPaste(GWASPasteConfig{Samples: 4, SNPs: 1, FanIn: 1}); err == nil {
		t.Fatal("fan-in 1 accepted")
	}
}

func TestCheckpointSweepShape(t *testing.T) {
	pts, err := RunCheckpointSweep(CheckpointSweepConfig{Seed: 3, RunsPerBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	// Paper Fig. 3 shape: monotone non-decreasing, saturating ≤ 50.
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanCheckpoints < pts[i-1].MeanCheckpoints-1e-9 {
			t.Fatalf("non-monotone at %d: %v", i, pts)
		}
	}
	if pts[len(pts)-1].MeanCheckpoints > 50 {
		t.Fatal("more checkpoints than steps")
	}
	if pts[0].MeanCheckpoints >= pts[len(pts)-1].MeanCheckpoints {
		t.Fatal("sweep is flat — budget had no effect")
	}
	fig := CheckpointSweepFigure(pts)
	if !strings.Contains(fig.Markdown(), "Fig. 3") {
		t.Fatal("figure markdown missing id")
	}
}

func TestCheckpointVariationSpread(t *testing.T) {
	runs, err := RunCheckpointVariation(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
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
	if min == max {
		t.Fatal("no run-to-run variation (Fig. 4 would be flat)")
	}
	fig := CheckpointVariationFigure(runs)
	if len(fig.Series[0].X) != 6 {
		t.Fatal("figure lost runs")
	}
	tbl := CheckpointVariationSummary(runs, nil)
	if !strings.Contains(tbl.Markdown(), "checkpoints @10% budget") {
		t.Fatal("summary table malformed")
	}
}

func TestStreamingExperiment(t *testing.T) {
	res, err := RunStreaming(StreamingConfig{Items: 5000, SwapAt: 2500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Policies) != 4 {
		t.Fatalf("policies = %d", len(res.Policies))
	}
	byName := map[string]PolicyThroughput{}
	for _, p := range res.Policies {
		if p.ItemsPerSecond <= 0 {
			t.Fatalf("%s throughput %v", p.Policy, p.ItemsPerSecond)
		}
		byName[p.Policy] = p
	}
	if byName["forward-all"].Selectivity != 1 {
		t.Fatalf("forward-all selectivity %v", byName["forward-all"].Selectivity)
	}
	if s := byName["sample-every(10)"].Selectivity; s < 0.09 || s > 0.11 {
		t.Fatalf("sample selectivity %v", s)
	}
	if byName["direct-selection(cap=4096)"].Selectivity != 0 {
		t.Fatal("selection forwarded without punctuation")
	}
	if res.PostSwapQueues != 2 {
		t.Fatalf("queues after swap = %d", res.PostSwapQueues)
	}
	if res.SwapLatency <= 0 {
		t.Fatal("swap latency unmeasured")
	}
	if !strings.Contains(StreamingTable(res).Markdown(), "runtime policy swap") {
		t.Fatal("table missing swap row")
	}
}

func TestStreamingRejectsBadConfig(t *testing.T) {
	if _, err := RunStreaming(StreamingConfig{Items: 5, SwapAt: 10}); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestIRFLoopSchedulingSmall(t *testing.T) {
	cfg := IRFLoopConfig{
		Features: 150, Nodes: 10, WalltimeSeconds: 3600,
		MedianRunSeconds: 120, Sigma: 1.25, Allocations: 100, Seed: 7,
	}
	res, err := RunIRFLoopScheduling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 7 shape: dynamic explores several times more parameters per
	// allocation than set-synchronized.
	if res.Speedup < 2 {
		t.Fatalf("speedup = %.2f, want ≥2 on heavy-tailed runs", res.Speedup)
	}
	if res.Dynamic.Allocations >= res.SetSync.Allocations {
		t.Fatalf("dynamic took %d allocations vs baseline %d",
			res.Dynamic.Allocations, res.SetSync.Allocations)
	}
	// Fig. 6 shape: dynamic utilisation above baseline.
	if res.Dynamic.MeanUtilization <= res.SetSync.MeanUtilization {
		t.Fatal("dynamic utilisation not better")
	}
	fig := IRFUtilizationFigure(res)
	if len(fig.Series) != 2 {
		t.Fatal("Fig. 6 needs both series")
	}
	if !strings.Contains(IRFThroughputTable(res).Markdown(), "improvement") {
		t.Fatal("Fig. 7 table malformed")
	}
}

func TestRealIRFLoopRecoversBlocks(t *testing.T) {
	net, data, err := RunRealIRFLoop(16, 250, 9)
	if err != nil {
		t.Fatal(err)
	}
	frac := WithinBlockEdgeFraction(net, data, 20)
	// Block structure should dominate the top edges (random ≈ 0.25).
	if frac < 0.7 {
		t.Fatalf("within-block fraction of top edges = %.2f", frac)
	}
}

func TestBuildIRFCampaignSize(t *testing.T) {
	m, err := BuildIRFCampaign(100, 20, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 100 {
		t.Fatalf("runs = %d", len(m.Runs))
	}
	if m.Campaign.Groups[0].Nodes != 20 {
		t.Fatalf("nodes = %d", m.Campaign.Groups[0].Nodes)
	}
}

func TestDebtContinuum(t *testing.T) {
	points, err := RunDebtContinuum()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if last.HumanSteps >= first.HumanSteps {
		t.Fatalf("continuum did not reduce human steps: %+v", points)
	}
	if last.AutomationFraction <= first.AutomationFraction {
		t.Fatal("automation fraction did not improve")
	}
	if last.DebtMinutes >= first.DebtMinutes {
		t.Fatal("debt did not shrink")
	}
	if last.HumanSteps != 0 {
		t.Fatalf("fully invested pipeline still has %d human steps", last.HumanSteps)
	}
	if !strings.Contains(DebtContinuumTable(points).Markdown(), "black-box") {
		t.Fatal("table malformed")
	}
}

// TestPaperScaleHeadlineClaims pins the paper's quantitative claims at full
// scale (skipped under -short): the Fig. 7 ≥4× scheduling improvement on
// the 1606-feature campaign and the Fig. 3 monotone budget sweep.
func TestPaperScaleHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	res, err := RunIRFLoopScheduling(DefaultIRFLoopConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 4 {
		t.Fatalf("paper-scale speedup %.2f× below the expected ≥4× band (paper: >5×)", res.Speedup)
	}
	if res.Dynamic.MeanUtilization < 0.7 {
		t.Fatalf("dynamic utilisation %.2f below expectation", res.Dynamic.MeanUtilization)
	}
	if res.SetSync.MeanUtilization > 0.4 {
		t.Fatalf("baseline utilisation %.2f too high for the straggler regime", res.SetSync.MeanUtilization)
	}

	pts, err := RunCheckpointSweep(CheckpointSweepConfig{Seed: 2021, RunsPerBudget: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanCheckpoints < pts[i-1].MeanCheckpoints-1e-9 {
			t.Fatalf("paper-scale Fig. 3 not monotone at %v", pts[i].Budget)
		}
	}
	if last := pts[len(pts)-1].MeanCheckpoints; last < 45 {
		t.Fatalf("50%% budget wrote only %.1f of 50", last)
	}
}

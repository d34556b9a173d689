package integration

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"fairflow/internal/analyze"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/remote"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// TestDistributedForensicsEndToEnd is the acceptance path for campaign
// performance forensics: a two-worker distributed campaign executing real OS
// processes must come back fully explainable — a connected critical path
// whose attribution matches the measured wall time within 10%, and nonzero
// CPU/RSS accounting on every executed run, in both the merged trace and the
// provenance records.
func TestDistributedForensicsEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	events := eventlog.NewLog()
	prov := provenance.NewStore()
	e := &remote.Engine{
		Listener: ln, BatchSize: 2, LeaseTTL: 2 * time.Second,
		Tracer: tracer, Metrics: metrics, Events: events, Prov: prov,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, name := range []string{"wa", "wb"} {
		w := &remote.Worker{
			Name: name, Addr: ln.Addr().String(), Slots: 2,
			Heartbeat: 15 * time.Millisecond,
			// A genuine CPU burn so rusage has something to report: sleeps
			// would finish with ~0 CPU and make the nonzero assertions moot.
			Executor: &savanna.ProcessExecutor{
				Command: []string{"sh", "-c",
					"i=0; while [ $i -lt 150000 ]; do i=$((i+1)); done"},
				Timeout: 30 * time.Second,
			},
			Tracer:  telemetry.NewTracer(),
			Metrics: telemetry.NewRegistry(),
			Events:  eventlog.NewLog(),
		}
		go w.Run(ctx)
	}

	campaign := make([]cheetah.Run, 8)
	for i := range campaign {
		campaign[i] = cheetah.Run{
			ID:     fmt.Sprintf("f-%02d", i),
			Params: map[string]string{"i": strconv.Itoa(i)},
		}
	}
	_, report, err := e.RunCampaign(context.Background(), "forensics", campaign)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Complete() || report.Succeeded != len(campaign) {
		t.Fatalf("report = %+v", report)
	}

	spans := tracer.Snapshot()
	rep, err := analyze.Analyze(spans, 5)
	if err != nil {
		t.Fatal(err)
	}

	// Connected critical path spanning the campaign.
	if len(rep.Path) == 0 {
		t.Fatal("empty critical path")
	}
	for i := 1; i < len(rep.Path); i++ {
		if !rep.Path[i].Start.Equal(rep.Path[i-1].End) {
			t.Fatalf("critical path disconnected between segment %d and %d", i-1, i)
		}
	}
	// Attribution explains the wall clock within 10%.
	total := rep.Attribution.Total()
	if diff := total - rep.WallSeconds; diff > 0.1*rep.WallSeconds || diff < -0.1*rep.WallSeconds {
		t.Fatalf("attribution %.3fs vs wall %.3fs: off by more than 10%%", total, rep.WallSeconds)
	}
	if rep.Coverage < 0.9 {
		t.Fatalf("coverage = %.3f, want ≥ 0.9", rep.Coverage)
	}

	// Every executed run has exactly one worker span in the merged trace,
	// filed by the coordinator from the run's Outcome: inside the run's
	// remote.run span, starting after the dispatch and ending by the time
	// the run concluded, with the resource accounting the Outcome carried.
	byID := map[int64]telemetry.SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.Name != "remote.worker.run" {
			continue
		}
		run := s.Attr("run")
		if seen[run] {
			t.Errorf("run %s has a second worker span", run)
		}
		if p := byID[s.Parent]; p.Name != "remote.run" || p.Attr("run") != run || s.Start.Before(p.Start) || s.End.After(p.End) {
			t.Errorf("run %s worker span %v–%v is not under its remote.run span %+v", run, s.Start, s.End, p)
		}
		cpu, _ := strconv.ParseFloat(s.Attr("cpu_s"), 64)
		rss, _ := strconv.ParseInt(s.Attr("max_rss_bytes"), 10, 64)
		if cpu <= 0 {
			t.Errorf("run %s worker span has cpu_s = %v, want > 0", run, s.Attr("cpu_s"))
		}
		if rss <= 0 {
			t.Errorf("run %s worker span has max_rss_bytes = %v, want > 0", run, s.Attr("max_rss_bytes"))
		}
		seen[run] = true
	}
	if len(seen) != len(campaign) {
		t.Fatalf("worker run spans for %d runs, want %d", len(seen), len(campaign))
	}

	// ...and in provenance: the coordinator persisted each run's cost.
	var recs []provenance.Record
	for _, r := range prov.Select(provenance.Query{CampaignID: "forensics"}) {
		if r.Status == provenance.StatusSucceeded {
			recs = append(recs, r)
		}
	}
	if len(recs) != len(campaign) {
		t.Fatalf("provenance records = %d, want %d", len(recs), len(campaign))
	}
	for _, r := range recs {
		if r.Resources == nil {
			t.Fatalf("record %s has no resource accounting", r.ID)
		}
		if r.Resources.CPUUserSeconds+r.Resources.CPUSystemSeconds <= 0 || r.Resources.MaxRSSBytes <= 0 {
			t.Errorf("record %s resources = %+v, want nonzero CPU and RSS", r.ID, r.Resources)
		}
	}

	// The fleet-wide resource histograms aggregated on the coordinator.
	snap := metrics.Snapshot()
	var cpuObs uint64
	for _, h := range snap.Histograms {
		if h.Name == "remote.run_cpu_seconds" {
			cpuObs += h.Count
		}
	}
	if cpuObs != uint64(len(campaign)) {
		t.Errorf("remote.run_cpu_seconds observations = %d, want %d", cpuObs, len(campaign))
	}
}

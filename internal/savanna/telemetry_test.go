package savanna

import (
	"context"
	"fmt"
	"testing"

	"fairflow/internal/telemetry"
)

// TestEngineTelemetry checks the engine's span hierarchy (campaign → run)
// and its executed/failed counters against a campaign with one planted
// failure.
func TestEngineTelemetry(t *testing.T) {
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		if params["i"] == "2" {
			return fmt.Errorf("planted failure")
		}
		return nil
	})
	runs, _ := testCampaign(4).EnumerateRuns()
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	eng := &LocalEngine{Executor: reg, Workers: 2, Tracer: tracer, Metrics: metrics}
	if _, _, err := eng.RunCampaign(context.Background(), "test", runs); err != nil {
		t.Fatal(err)
	}

	if got := metrics.Counter("savanna.runs_executed_total").Value(); got != 3 {
		t.Errorf("runs_executed_total = %d, want 3", got)
	}
	if got := metrics.Counter("savanna.runs_failed_total").Value(); got != 1 {
		t.Errorf("runs_failed_total = %d, want 1", got)
	}
	if got := metrics.Counter("savanna.runs_cached_total").Value(); got != 0 {
		t.Errorf("runs_cached_total = %d, want 0", got)
	}

	spans := tracer.Snapshot()
	var campaignID int64
	var runSpans int
	for _, s := range spans {
		if s.Name == "savanna.campaign" {
			campaignID = s.ID
		}
	}
	if campaignID == 0 {
		t.Fatal("no savanna.campaign span recorded")
	}
	for _, s := range spans {
		if s.Name != "savanna.run" {
			continue
		}
		runSpans++
		if s.Parent != campaignID {
			t.Errorf("run span %d parent = %d, want campaign %d", s.ID, s.Parent, campaignID)
		}
	}
	if runSpans != 4 {
		t.Errorf("run spans = %d, want 4", runSpans)
	}
}

// TestEngineTelemetryOff exercises the nil-telemetry path: a plain engine
// must run exactly as before (nil instruments swallow every update).
func TestEngineTelemetryOff(t *testing.T) {
	reg := NewFuncRegistry("work")
	reg.Register("work", func(map[string]string) error { return nil })
	runs, _ := testCampaign(3).EnumerateRuns()
	eng := &LocalEngine{Executor: reg, Workers: 2}
	results, _, err := eng.RunCampaign(context.Background(), "test", runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
}

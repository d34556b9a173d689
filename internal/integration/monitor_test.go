package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairflow/internal/cheetah"
	"fairflow/internal/hpcsim"
	"fairflow/internal/monitor"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
	"math/rand"
)

// TestMonitoredSimCampaignEndToEnd is the PR's acceptance flow: a seeded
// SimEngine campaign with one planted straggler and node-failure injection,
// watched live by the campaign monitor (health evaluated on a virtual-time
// tick inside the simulation). The monitor must flag the straggler while it
// runs, fire the kill-burst alert rule on the injected failures, resolve
// both by campaign end, and every alert event must carry a span ID that
// resolves in the exported trace — the journal and the flamegraph are one
// correlated artifact.
//
// When MONITOR_SAMPLE_DIR is set, the final health report and the full
// event journal are written there (the CI workflow uploads them as
// artifacts).
func TestMonitoredSimCampaignEndToEnd(t *testing.T) {
	const (
		nRuns     = 24
		nodes     = 4
		walltime  = 3000.0
		shortSecs = 60.0
		longSecs  = 1500.0
		straggler = "g/s/run-0007"
		tickSecs  = 120.0
	)
	runs := make([]cheetah.Run, nRuns)
	for i := range runs {
		runs[i] = cheetah.Run{
			ID:     fmt.Sprintf("g/s/run-%04d", i),
			Group:  "g",
			Sweep:  "s",
			Index:  i,
			Params: map[string]string{"i": fmt.Sprint(i)},
		}
	}

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	log := eventlog.NewLog()
	log.SetMetrics(reg)

	rules, err := monitor.ParseRules([]string{
		"kill-burst: savanna.runs_killed_total > 0",
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{
		Campaign:        "sim-acceptance",
		StragglerFactor: 3,
		Rules:           rules,
	}, reg, log)

	eng := &savanna.SimEngine{
		Durations: func(run cheetah.Run, rng *rand.Rand) float64 {
			if run.ID == straggler {
				return longSecs
			}
			return shortSecs
		},
		Seed:    11,
		Tracer:  tracer,
		Metrics: reg,
		Events:  log,
		// The failure burst: short MTTF over the allocation kills running
		// runs (they requeue) — the signal the kill-burst rule watches.
		Failures: hpcsim.FailureConfig{MTTF: 2500, RepairTime: 30},
		Probe: func(sim *hpcsim.Sim, cluster *hpcsim.Cluster) {
			// The live view: evaluate health on a virtual-time tick, like
			// fairctl watch polling /health.json — but deterministic.
			for tick := tickSecs; tick < walltime; tick += tickSecs {
				sim.At(tick, func() { mon.Health() })
			}
		},
	}

	outcome, err := eng.RunToCompletion(runs, nodes, walltime, savanna.Dynamic, 11, 8)
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Allocations == 0 {
		t.Fatal("campaign consumed no allocations")
	}

	final := mon.Health()
	if final.Campaign != "sim-acceptance" {
		t.Errorf("campaign = %q", final.Campaign)
	}
	if final.TotalRuns != nRuns {
		t.Errorf("total runs = %d, want %d (learned from campaign.start)", final.TotalRuns, nRuns)
	}
	if final.Executed != nRuns {
		t.Errorf("executed = %d, want %d", final.Executed, nRuns)
	}
	if final.Progress != 1 {
		t.Errorf("progress = %v, want 1", final.Progress)
	}
	if final.Killed == 0 {
		t.Error("failure injection killed no runs — the burst never happened")
	}
	// By campaign end the straggler has completed and the kill counter is
	// flat; the built-in straggler alert must be resolved, the rule alert
	// still firing (it is a level threshold, not a rate).
	for _, a := range final.Alerts {
		if a.Alert == monitor.AlertStraggler && a.Firing {
			t.Errorf("straggler alert still firing at campaign end: %+v", a)
		}
	}

	// The journal must carry the full alert lifecycle, correlated to spans.
	spans := map[int64]telemetry.SpanData{}
	for _, s := range tracer.Snapshot() {
		spans[s.ID] = s
	}
	firing := map[string]int{}
	resolved := map[string]int{}
	for _, ev := range log.Snapshot() {
		if ev.Type != eventlog.AlertFiring && ev.Type != eventlog.AlertResolved {
			continue
		}
		name := ev.Attr("alert")
		if ev.Type == eventlog.AlertFiring {
			firing[name]++
		} else {
			resolved[name]++
		}
		if ev.Span == 0 {
			t.Errorf("alert event %s/%s carries no span ID", ev.Type, name)
			continue
		}
		sp, ok := spans[ev.Span]
		if !ok {
			t.Errorf("alert event %s/%s span %d does not resolve in the trace", ev.Type, name, ev.Span)
			continue
		}
		if sp.Name != "savanna.campaign" {
			t.Errorf("alert event %s/%s resolves to span %q, want savanna.campaign", ev.Type, name, sp.Name)
		}
	}
	if firing[monitor.AlertStraggler] == 0 {
		t.Error("straggler alert never fired despite a 25× run")
	}
	if resolved[monitor.AlertStraggler] == 0 {
		t.Error("straggler alert never resolved despite the run completing")
	}
	if firing["kill-burst"] == 0 {
		t.Error("kill-burst rule never fired despite injected failures")
	}

	// The straggler must have been named while it ran: some mid-campaign
	// health evaluation saw it. Re-derive from the journal: its run took
	// ~longSecs of virtual time.
	sawStragglerRun := false
	for _, s := range tracer.Snapshot() {
		if s.Name == "savanna.run" && s.Attr("run") == straggler && s.Duration().Seconds() >= longSecs {
			sawStragglerRun = true
		}
	}
	if !sawStragglerRun {
		t.Errorf("no %s span of ≥%v seconds in the trace", straggler, longSecs)
	}

	// Dump round trip: fairctl health -f must reproduce the alerts offline.
	var buf bytes.Buffer
	if err := eventlog.Collect(reg, tracer, log).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dump, err := eventlog.ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed := monitor.FromDump(dump, monitor.Config{Rules: rules})
	if replayed.TotalRuns != nRuns || replayed.Executed != nRuns {
		t.Errorf("dump replay: total=%d executed=%d, want %d/%d",
			replayed.TotalRuns, replayed.Executed, nRuns, nRuns)
	}
	foundKillBurst := false
	for _, a := range replayed.Alerts {
		if a.Alert == "kill-burst" && a.Firing {
			foundKillBurst = true
		}
	}
	if !foundKillBurst {
		t.Error("dump replay lost the kill-burst alert")
	}

	if dir := os.Getenv("MONITOR_SAMPLE_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		health, err := json.MarshalIndent(final, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "health.json"), health, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := eventlog.WriteJSONL(f, log.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedRunErrorReachesTrace pins satellite 3 end to end: a failed
// savanna run's error message must survive into the Chrome trace JSON that
// fairctl trace emits (as the span's "error" arg) and into the journal's
// ERROR event.
func TestFailedRunErrorReachesTrace(t *testing.T) {
	reg := savanna.NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		if params["i"] == "1" {
			return fmt.Errorf("segfault in solver")
		}
		return nil
	})
	runs := []cheetah.Run{
		{ID: "g/s/run-0000", Params: map[string]string{"i": "0"}},
		{ID: "g/s/run-0001", Params: map[string]string{"i": "1"}},
	}
	tracer := telemetry.NewTracer()
	log := eventlog.NewLog()
	eng := &savanna.LocalEngine{Executor: reg, Workers: 1, Tracer: tracer, Events: log}
	if _, _, err := eng.RunCampaign(context.Background(), "failtest", runs); err != nil {
		t.Fatal(err)
	}

	// What fairctl trace writes: the Chrome trace of the dump's spans.
	var chrome bytes.Buffer
	if err := telemetry.WriteChromeTrace(&chrome, tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tf.TraceEvents {
		if ev.Name == "savanna.run" && ev.Args["error"] == "segfault in solver" {
			found = true
		}
	}
	if !found {
		t.Errorf("chrome trace carries no savanna.run with the error arg:\n%s",
			strings.TrimSpace(chrome.String()))
	}

	// The same failure as an ERROR journal event, span-correlated.
	foundEvent := false
	for _, ev := range log.Snapshot() {
		if ev.Type == eventlog.RunFailed {
			foundEvent = true
			if ev.Level != eventlog.Error || ev.Msg != "segfault in solver" {
				t.Errorf("run.failed event = %+v", ev)
			}
		}
	}
	if !foundEvent {
		t.Error("no run.failed event journaled")
	}
}

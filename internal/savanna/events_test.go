package savanna

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// TestLocalEngineEventJournal checks the engine's correlated journal: a
// campaign brackets its runs, every run gets a start and a terminal event,
// and the planted failure rides an ERROR event whose span carries the same
// error as an attribute (the satellite-3 contract).
func TestLocalEngineEventJournal(t *testing.T) {
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		if params["i"] == "2" {
			return fmt.Errorf("planted failure")
		}
		return nil
	})
	runs, _ := testCampaign(4).EnumerateRuns()
	tracer := telemetry.NewTracer()
	log := eventlog.NewLog()
	eng := &LocalEngine{Executor: reg, Workers: 2, Tracer: tracer, Events: log}
	if _, _, err := eng.RunCampaign(context.Background(), "test", runs); err != nil {
		t.Fatal(err)
	}

	evs := log.Snapshot()
	if len(evs) == 0 {
		t.Fatal("no events journaled")
	}
	if evs[0].Type != eventlog.CampaignStart {
		t.Errorf("first event = %s, want campaign.start", evs[0].Type)
	}
	if evs[len(evs)-1].Type != eventlog.CampaignDone {
		t.Errorf("last event = %s, want campaign.done", evs[len(evs)-1].Type)
	}

	spans := map[int64]telemetry.SpanData{}
	for _, s := range tracer.Snapshot() {
		spans[s.ID] = s
	}
	starts, terminal, failures := 0, 0, 0
	for _, ev := range evs {
		switch ev.Type {
		case eventlog.RunStart:
			starts++
		case eventlog.RunSucceeded:
			terminal++
		case eventlog.RunFailed:
			terminal++
			failures++
			if ev.Level != eventlog.Error {
				t.Errorf("run.failed level = %s, want error", ev.Level)
			}
			if ev.Msg != "planted failure" {
				t.Errorf("run.failed msg = %q, want planted failure", ev.Msg)
			}
			sp, ok := spans[ev.Span]
			if !ok {
				t.Fatalf("run.failed span %d not in trace", ev.Span)
			}
			if sp.Attr("error") != "planted failure" {
				t.Errorf("failed span error attr = %q, want planted failure", sp.Attr("error"))
			}
		}
		// Every run/campaign event must resolve to a recorded span.
		if ev.Span != 0 {
			if _, ok := spans[ev.Span]; !ok {
				t.Errorf("event %s span %d not in trace", ev.Type, ev.Span)
			}
		}
	}
	if starts != 4 || terminal != 4 || failures != 1 {
		t.Errorf("starts=%d terminal=%d failures=%d, want 4/4/1", starts, terminal, failures)
	}
}

// TestSimEngineEventsVirtualTime checks that a simulated allocation journals
// its events stamped in virtual time (seconds past the epoch, far from wall
// clock) and that alloc brackets the runs.
func TestSimEngineEventsVirtualTime(t *testing.T) {
	log := eventlog.NewLog()
	tracer := telemetry.NewTracer()
	e := &SimEngine{
		Durations: LogNormalDurations(10, 0.1),
		Seed:      2,
		Tracer:    tracer,
		Events:    log,
	}
	runs := simRuns(t, 8)
	out, err := e.RunAllocation(runs, 4, 1e5, Dynamic, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Completed) != 8 {
		t.Fatalf("completed = %d, want 8", len(out.Completed))
	}

	evs := log.Snapshot()
	if len(evs) == 0 {
		t.Fatal("no events journaled")
	}
	if evs[0].Type != eventlog.AllocStart {
		t.Errorf("first event = %s, want alloc.start", evs[0].Type)
	}
	if last := evs[len(evs)-1]; last.Type != eventlog.AllocDone {
		t.Errorf("last event = %s, want alloc.done", last.Type)
	}
	// Virtual stamps: within the first day past the epoch, monotonic
	// non-decreasing.
	horizon := time.Unix(0, 0).Add(24 * time.Hour)
	succeeded := 0
	for i, ev := range evs {
		if ev.Time.Before(time.Unix(0, 0)) || ev.Time.After(horizon) {
			t.Fatalf("event %s stamped %v — not virtual time", ev.Type, ev.Time)
		}
		if i > 0 && ev.Time.Before(evs[i-1].Time) {
			t.Fatalf("event %d time regressed: %v < %v", i, ev.Time, evs[i-1].Time)
		}
		if ev.Type == eventlog.RunSucceeded {
			succeeded++
		}
	}
	if succeeded != 8 {
		t.Errorf("run.succeeded events = %d, want 8", succeeded)
	}

	// Second allocation continues — does not rewind — the virtual clock.
	mark := evs[len(evs)-1].Time
	if _, err := e.RunAllocation(simRuns(t, 4), 4, 1e5, Dynamic, 3); err != nil {
		t.Fatal(err)
	}
	evs = log.Snapshot()
	for _, ev := range evs[len(evs)-1:] {
		if ev.Time.Before(mark) {
			t.Fatalf("second allocation rewound virtual clock: %v < %v", ev.Time, mark)
		}
	}
}

// TestSimEngineKilledRunEvents checks walltime kills journal run.killed at
// warn level.
func TestSimEngineKilledRunEvents(t *testing.T) {
	log := eventlog.NewLog()
	e := &SimEngine{Durations: LogNormalDurations(100, 0.1), Seed: 4, Events: log}
	out, err := e.RunAllocation(simRuns(t, 50), 4, 500, Dynamic, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed == 0 {
		t.Fatal("no runs were cut off at the walltime")
	}
	killed := 0
	for _, ev := range log.Snapshot() {
		if ev.Type == eventlog.RunKilled {
			killed++
			if ev.Level != eventlog.Warn {
				t.Errorf("run.killed level = %s, want warn", ev.Level)
			}
		}
	}
	if killed != out.Killed {
		t.Errorf("run.killed events = %d, want %d", killed, out.Killed)
	}
}

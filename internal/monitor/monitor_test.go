package monitor

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
	"fairflow/internal/telemetry/history"
)

// simClock is a settable virtual clock shared by a test's log and monitor.
type simClock struct{ t time.Time }

func (c *simClock) Now() time.Time          { return c.t }
func (c *simClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newSimClock() *simClock { return &simClock{t: time.Unix(0, 0)} }

// harness wires a log + monitor on one virtual clock.
func harness(t *testing.T, cfg Config) (*simClock, *eventlog.Log, *Monitor) {
	t.Helper()
	clk := newSimClock()
	log := eventlog.NewLog()
	log.SetClock(clk)
	return clk, log, New(cfg, nil, log)
}

func runEv(log *eventlog.Log, typ, id string) {
	log.Append(eventlog.Info, typ, "", 0, telemetry.String("run", id))
}

func TestProgressCountsAndETA(t *testing.T) {
	clk, log, m := harness(t, Config{Campaign: "c", TotalRuns: 10})

	log.Append(eventlog.Info, eventlog.CampaignStart, "", 42)
	for i := 0; i < 4; i++ {
		id := string(rune('a' + i))
		runEv(log, eventlog.RunStart, id)
		clk.advance(10 * time.Second)
		runEv(log, eventlog.RunSucceeded, id)
	}
	runEv(log, eventlog.RunCached, "e")
	runEv(log, eventlog.RunFailed, "f")
	runEv(log, eventlog.RunStart, "g")

	h := m.Health()
	if h.Executed != 4 || h.Cached != 1 || h.Failed != 1 || h.Running != 1 {
		t.Errorf("counts: %+v", h)
	}
	if h.Completed != 6 || h.Progress != 0.6 {
		t.Errorf("completed %d progress %v, want 6 / 0.6", h.Completed, h.Progress)
	}
	// 6 completions in 40 virtual seconds → 0.15/s; 4 remaining → ETA 26.67s.
	if got := h.ThroughputPerSec; got != 0.15 {
		t.Errorf("throughput %v, want 0.15", got)
	}
	if !h.HasETA || h.ETASeconds < 26 || h.ETASeconds > 27 {
		t.Errorf("ETA %v (has=%v), want ≈26.7s", h.ETASeconds, h.HasETA)
	}
	if h.MedianRunSeconds != 10 {
		t.Errorf("median %v, want 10", h.MedianRunSeconds)
	}
}

func TestTotalRunsLearnedFromCampaignStart(t *testing.T) {
	_, log, m := harness(t, Config{})
	log.Append(eventlog.Info, eventlog.CampaignStart, "", 0, telemetry.Int("runs", 32))
	if h := m.Health(); h.TotalRuns != 32 {
		t.Errorf("TotalRuns = %d, want 32 (learned from event)", h.TotalRuns)
	}
}

func TestStragglerDetected(t *testing.T) {
	clk, log, m := harness(t, Config{TotalRuns: 5})
	// Straggler starts first and keeps running while siblings complete.
	runEv(log, eventlog.RunStart, "slow")
	for i := 0; i < 3; i++ {
		id := string(rune('a' + i))
		runEv(log, eventlog.RunStart, id)
		clk.advance(10 * time.Second)
		runEv(log, eventlog.RunSucceeded, id)
	}
	// slow has now been running 30s against a 10s median — at the default
	// factor 3 it is exactly at the edge; one more second tips it.
	if h := m.Health(); len(h.Stragglers) != 0 {
		t.Fatalf("straggler flagged at exactly k×median: %+v", h.Stragglers)
	}
	clk.advance(5 * time.Second)
	h := m.Health()
	if len(h.Stragglers) != 1 || h.Stragglers[0].Run != "slow" {
		t.Fatalf("stragglers = %+v, want [slow]", h.Stragglers)
	}
	if s := h.Stragglers[0]; s.ElapsedSeconds != 35 || s.MedianSeconds != 10 || s.Factor != 3.5 {
		t.Errorf("straggler detail: %+v", s)
	}
	// The transition was journaled, correlated and typed.
	var fired *eventlog.Event
	for _, ev := range log.Snapshot() {
		if ev.Type == eventlog.AlertFiring {
			fired = &ev
			break
		}
	}
	if fired == nil || fired.Attr("alert") != AlertStraggler {
		t.Fatalf("no straggler alert.firing event in journal")
	}

	// Resolving: the straggler completes → alert resolves on next eval.
	runEv(log, eventlog.RunSucceeded, "slow")
	h = m.Health()
	if len(h.Stragglers) != 0 {
		t.Errorf("straggler persists after completion")
	}
	resolved := false
	for _, ev := range log.Snapshot() {
		if ev.Type == eventlog.AlertResolved && ev.Attr("alert") == AlertStraggler {
			resolved = true
		}
	}
	if !resolved {
		t.Error("no alert.resolved event after straggler completed")
	}
}

func TestAllEqualDurationsNoFalseStraggler(t *testing.T) {
	clk, log, m := harness(t, Config{TotalRuns: 6})
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		runEv(log, eventlog.RunStart, id)
		clk.advance(10 * time.Second)
		runEv(log, eventlog.RunSucceeded, id)
	}
	// A sixth run in flight for exactly the common duration: not a straggler.
	runEv(log, eventlog.RunStart, "f")
	clk.advance(10 * time.Second)
	if h := m.Health(); len(h.Stragglers) != 0 {
		t.Errorf("false straggler on all-equal durations: %+v", h.Stragglers)
	}
}

func TestZeroCompletedNoETANoStragglerNoStall(t *testing.T) {
	clk, _, m := harness(t, Config{TotalRuns: 8, StallWindow: 30 * time.Second})
	// No events at all: no stall alarm however far the clock advances.
	clk.advance(10 * time.Minute)
	h := m.Health()
	if h.HasETA {
		t.Error("ETA claimed with zero completed runs")
	}
	if h.Stalled {
		t.Error("stall alarm before the first event")
	}
	if len(h.Stragglers) != 0 || h.ThroughputPerSec != 0 {
		t.Errorf("health from nothing: %+v", h)
	}
}

func TestStallWatchdogVirtualTime(t *testing.T) {
	clk, log, m := harness(t, Config{TotalRuns: 4, StallWindow: 300 * time.Second})
	runEv(log, eventlog.RunStart, "a")
	clk.advance(100 * time.Second)
	if h := m.Health(); h.Stalled {
		t.Fatal("stalled inside the window")
	}
	clk.advance(250 * time.Second) // 350s since last event
	h := m.Health()
	if !h.Stalled || h.StallSeconds != 350 {
		t.Fatalf("stall = %v (%vs), want true at 350 virtual seconds", h.Stalled, h.StallSeconds)
	}
	stallFiring := false
	for _, a := range h.Alerts {
		if a.Alert == AlertStall && a.Firing {
			stallFiring = true
		}
	}
	if !stallFiring {
		t.Error("stall alert not firing in report")
	}

	// Progress resumes → resolved; alert events must not feed the watchdog
	// (the firing event itself happened at +350s, but it is not progress).
	runEv(log, eventlog.RunSucceeded, "a")
	h = m.Health()
	if h.Stalled {
		t.Error("stall persists after progress resumed")
	}

	// Campaign done → watchdog off for good.
	log.Append(eventlog.Info, eventlog.CampaignDone, "", 0)
	clk.advance(time.Hour)
	if h := m.Health(); h.Stalled {
		t.Error("stall alarm after campaign.done")
	}
}

func TestAlertEventsDoNotResetWatchdog(t *testing.T) {
	clk, log, m := harness(t, Config{StallWindow: 100 * time.Second})
	runEv(log, eventlog.RunStart, "a")
	clk.advance(150 * time.Second)
	if h := m.Health(); !h.Stalled {
		t.Fatal("expected stall")
	}
	// The alert.firing event was just journaled at +150s. If it counted as
	// progress the watchdog would reset; it must still be stalled later.
	clk.advance(50 * time.Second)
	h := m.Health()
	if !h.Stalled || h.StallSeconds != 200 {
		t.Errorf("stall %v at %vs, want 200s (alert event reset the watchdog?)", h.Stalled, h.StallSeconds)
	}
}

func TestRuleThresholdAndRate(t *testing.T) {
	clk := newSimClock()
	log := eventlog.NewLog()
	log.SetClock(clk)
	reg := telemetry.NewRegistry()
	failures := reg.Counter("savanna.runs_failed_total")

	m := New(Config{
		Rules: []Rule{
			{Name: "too-many-failures", Metric: "savanna.runs_failed_total", Predicate: Above, Threshold: 3},
			{Name: "failure-burst", Metric: "savanna.runs_failed_total", Predicate: Above, Threshold: 0.5, Rate: true},
		},
	}, reg, log)

	alertByName := func(h CampaignHealth, name string) AlertState {
		for _, a := range h.Alerts {
			if a.Alert == name {
				return a
			}
		}
		t.Fatalf("alert %q missing from report", name)
		return AlertState{}
	}

	// First eval establishes the rate base; nothing fires.
	h := m.Health()
	if alertByName(h, "too-many-failures").Firing || alertByName(h, "failure-burst").Firing {
		t.Fatal("alerts firing on first evaluation")
	}

	// 2 failures in 10s: rate 0.2/s — under both thresholds.
	failures.Add(2)
	clk.advance(10 * time.Second)
	h = m.Health()
	if alertByName(h, "too-many-failures").Firing {
		t.Error("threshold rule fired at 2 ≤ 3")
	}
	if a := alertByName(h, "failure-burst"); a.Firing {
		t.Errorf("rate rule fired at %v ≤ 0.5", a.Value)
	}

	// Burst: 8 more failures in 10s → level 10 > 3, rate 0.8 > 0.5.
	failures.Add(8)
	clk.advance(10 * time.Second)
	h = m.Health()
	if a := alertByName(h, "too-many-failures"); !a.Firing || a.Value != 10 {
		t.Errorf("threshold rule: %+v, want firing at 10", a)
	}
	if a := alertByName(h, "failure-burst"); !a.Firing || a.Value != 0.8 {
		t.Errorf("rate rule: %+v, want firing at 0.8", a)
	}

	// Quiet 10s: rate falls to 0 → burst resolves, level alert stays.
	clk.advance(10 * time.Second)
	h = m.Health()
	if !alertByName(h, "too-many-failures").Firing {
		t.Error("level alert resolved while level still exceeds")
	}
	if alertByName(h, "failure-burst").Firing {
		t.Error("rate alert still firing after the burst ended")
	}

	// Journal carries the full firing/resolved story.
	var types []string
	for _, ev := range log.Snapshot() {
		types = append(types, ev.Type+":"+ev.Attr("alert"))
	}
	want := []string{
		"alert.firing:too-many-failures",
		"alert.firing:failure-burst",
		"alert.resolved:failure-burst",
	}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("journal transitions %v, want %v", types, want)
	}
}

func TestRuleMissingMetricNeverFires(t *testing.T) {
	_, log, _ := harness(t, Config{})
	reg := telemetry.NewRegistry()
	m := New(Config{Rules: []Rule{
		{Name: "ghost", Metric: "no.such_metric", Predicate: Below, Threshold: 100},
	}}, reg, log)
	if a := m.Health().Alerts; len(a) != 3 || a[2].Firing {
		t.Errorf("rule over a missing metric fired: %+v", a)
	}
}

func TestHandlerServesHealthJSON(t *testing.T) {
	_, log, m := harness(t, Config{Campaign: "gwas", TotalRuns: 2})
	runEv(log, eventlog.RunStart, "a")
	runEv(log, eventlog.RunSucceeded, "a")

	rr := httptest.NewRecorder()
	m.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/health.json", nil))
	var h CampaignHealth
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatalf("health.json is not valid JSON: %v", err)
	}
	if h.Campaign != "gwas" || h.Executed != 1 || h.TotalRuns != 2 {
		t.Errorf("served health: %+v", h)
	}
}

func TestFromDumpReplaysJournal(t *testing.T) {
	clk := newSimClock()
	log := eventlog.NewLog()
	log.SetClock(clk)
	reg := telemetry.NewRegistry()
	reg.Counter("savanna.runs_failed_total").Add(5)

	log.Append(eventlog.Info, eventlog.CampaignStart, "", 0, telemetry.Int("runs", 10))
	runEv(log, eventlog.RunStart, "slow")
	for i := 0; i < 3; i++ {
		id := string(rune('a' + i))
		runEv(log, eventlog.RunStart, id)
		clk.advance(10 * time.Second)
		runEv(log, eventlog.RunSucceeded, id)
	}
	clk.advance(20 * time.Second)
	runEv(log, eventlog.RunFailed, "x") // final event at +50s

	d := eventlog.Collect(reg, nil, log)
	h := FromDump(d, Config{Rules: []Rule{
		{Name: "failure-burst", Metric: "savanna.runs_failed_total", Predicate: Above, Threshold: 0.05, Rate: true},
	}})

	if h.TotalRuns != 10 || h.Executed != 3 || h.Failed != 1 || h.Running != 1 {
		t.Errorf("replayed counts: %+v", h)
	}
	// "slow" has been in flight the whole 50s journal vs a 10s median.
	if len(h.Stragglers) != 1 || h.Stragglers[0].Run != "slow" {
		t.Errorf("dump stragglers: %+v", h.Stragglers)
	}
	// Rate over the journal span: 5 failures / 50s = 0.1 > 0.05 → firing.
	var burst *AlertState
	for i := range h.Alerts {
		if h.Alerts[i].Alert == "failure-burst" {
			burst = &h.Alerts[i]
		}
	}
	if burst == nil || !burst.Firing || burst.Value != 0.1 {
		t.Errorf("dump rate alert: %+v, want firing at 0.1", burst)
	}
	// Report is generated as of the final event's virtual time.
	if !h.GeneratedAt.Equal(time.Unix(50, 0)) {
		t.Errorf("GeneratedAt %v, want +50s", h.GeneratedAt)
	}
}

func TestRenderTextSmoke(t *testing.T) {
	var b strings.Builder
	RenderText(&b, CampaignHealth{
		Campaign: "gwas", TotalRuns: 10, Completed: 6, Executed: 4, Cached: 1,
		Failed: 1, Running: 2, Progress: 0.6, ThroughputPerSec: 0.15,
		HasETA: true, ETASeconds: 26.7, MedianRunSeconds: 10,
		Stragglers: []Straggler{{Run: "g/s/run-00003", ElapsedSeconds: 35, MedianSeconds: 10, Factor: 3.5}},
		Stalled:    true, StallSeconds: 350,
		WorkersLive: 1, WorkersDead: 1,
		Workers: []WorkerHealth{
			{Worker: "w1", Live: true, Slots: 2, RunsInFlight: 2, Completed: 3, LastSeenAgeSeconds: 4},
			{Worker: "w2", Slots: 2, Completed: 1, Lost: 1},
		},
		Alerts: []AlertState{{Alert: "failure-burst", Firing: true, Value: 0.8, Threshold: 0.5}},
	})
	out := b.String()
	for _, want := range []string{
		"campaign  gwas", "6/10", "60%", "ETA", "straggler g/s/run-00003",
		"3.5×", "STALLED", "failure-burst",
		"workers   1 live · 1 dead", "w1", "2 in flight · 3 done", "seen 4s ago",
		"w2", "gone", "1 lost",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRateRuleUsesHistoryWindow: with a history ring configured, rate()
// rules read a true sliding-window rate — computable on the very first
// Health call (no between-eval base needed) and decaying as the burst
// leaves the window, independent of when Health happened to be called.
func TestRateRuleUsesHistoryWindow(t *testing.T) {
	clk := newSimClock()
	log := eventlog.NewLog()
	log.SetClock(clk)
	reg := telemetry.NewRegistry()
	failures := reg.Counter("savanna.runs_failed_total")
	ring := history.New(reg, 0)
	ring.SetClock(clk)
	m := New(Config{
		Rules: []Rule{
			{Name: "burst", Metric: "savanna.runs_failed_total", Predicate: Above, Threshold: 0.5, Rate: true},
		},
		History: ring,
	}, reg, log)

	burst := func(h CampaignHealth) AlertState {
		for _, a := range h.Alerts {
			if a.Alert == "burst" {
				return a
			}
		}
		t.Fatal("burst alert missing")
		return AlertState{}
	}

	ring.Sample() // t=0, 0 failures
	clk.advance(10 * time.Second)
	failures.Add(8)
	ring.Sample() // t=10, 8 failures

	// First Health call: the between-eval estimator would have no base yet,
	// but the ring already holds the burst → 0.8/s, firing.
	h := m.Health()
	if a := burst(h); !a.Firing || a.Value != 0.8 {
		t.Fatalf("first eval with history: %+v, want firing at 0.8", a)
	}

	// 30 quiet seconds roll the burst out of the window → rate 0, resolved.
	for i := 0; i < 3; i++ {
		clk.advance(10 * time.Second)
		ring.Sample()
	}
	h = m.Health()
	if a := burst(h); a.Firing || a.Value != 0 {
		t.Fatalf("after quiet window: %+v, want resolved at 0", a)
	}
}

package savanna

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/hpcsim"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// noSleep is the test sleeper: retries pace instantly, no test ever waits.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

// chaoticExecutor injects seeded transient faults in front of a
// deterministic payload that writes one output file per run — the harness
// for the zero-lost-runs acceptance test.
type chaoticExecutor struct {
	mu     sync.Mutex
	rng    *rand.Rand
	p      float64
	outDir string
	calls  int
}

func (c *chaoticExecutor) Execute(run cheetah.Run) error {
	c.mu.Lock()
	c.calls++
	faulty := c.rng.Float64() < c.p
	c.mu.Unlock()
	if faulty {
		return resilience.MarkTransient(fmt.Errorf("injected fault on %s", run.ID))
	}
	// The payload is a pure function of the sweep point, so a fault-free
	// baseline and a chaos campaign must produce byte-identical outputs.
	data := []byte("result i=" + run.Params["i"] + "\n")
	return os.WriteFile(filepath.Join(c.outDir, strings.ReplaceAll(run.ID, "/", "_")), data, 0o644)
}

func readOutputs(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestLocalEngineChaosZeroLostRuns is the seeded chaos acceptance test:
// p=0.3 transient faults, retries on — the campaign completes with zero
// lost runs and outputs byte-identical to a fault-free baseline.
func TestLocalEngineChaosZeroLostRuns(t *testing.T) {
	runs, err := testCampaign(24).EnumerateRuns()
	if err != nil {
		t.Fatal(err)
	}

	baselineDir := t.TempDir()
	baseline := &chaoticExecutor{rng: rand.New(rand.NewSource(1)), p: 0, outDir: baselineDir}
	if _, _, err := (&LocalEngine{Executor: baseline, Workers: 4}).RunCampaign(context.Background(), "test", runs); err != nil {
		t.Fatal(err)
	}

	chaosDir := t.TempDir()
	chaos := &chaoticExecutor{rng: rand.New(rand.NewSource(42)), p: 0.3, outDir: chaosDir}
	journal, err := resilience.OpenJournal(filepath.Join(t.TempDir(), "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	metrics := telemetry.NewRegistry()
	events := eventlog.NewLog()
	eng := &LocalEngine{
		Executor: chaos, Workers: 4, Metrics: metrics, Events: events,
		Resilience: &resilience.Config{
			Retry:   resilience.RetryPolicy{MaxAttempts: 12, BaseDelay: time.Minute},
			Journal: journal,
			Sleep:   noSleep, // multi-minute backoff schedule, no real waiting
			Seed:    7,
		},
	}
	start := time.Now()
	results, report, err := eng.RunCampaign(context.Background(), "test", runs)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("chaos campaign took %s of real time — backoff must not sleep", wall)
	}
	for _, r := range results {
		if r.Status != provenance.StatusSucceeded {
			t.Fatalf("lost run %s: %+v", r.Run.ID, r)
		}
	}
	if !report.Complete() || report.Succeeded != 24 {
		t.Fatalf("report = %+v", report)
	}
	if report.Retries == 0 {
		t.Fatal("p=0.3 chaos produced zero retries — faults not reaching the retry loop")
	}
	if got := metrics.Counter("savanna.retries_total").Value(); got != int64(report.Retries) {
		t.Fatalf("retries metric %v != report %d", got, report.Retries)
	}
	if want, got := readOutputs(t, baselineDir), readOutputs(t, chaosDir); len(got) != len(want) {
		t.Fatalf("chaos produced %d outputs, baseline %d", len(got), len(want))
	} else {
		for name, data := range want {
			if got[name] != data {
				t.Fatalf("output %s differs: %q != %q", name, got[name], data)
			}
		}
	}
	// The journal must replay to all-done.
	recs, err := resilience.ReadJournalFile(journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	state := resilience.Replay(recs)
	var ids []string
	for _, r := range runs {
		ids = append(ids, r.ID)
	}
	if rem := state.Remaining(ids); len(rem) != 0 {
		t.Fatalf("journal replay says %d runs remain: %v", len(rem), rem)
	}

	// CI's chaos job archives the campaign's accounting as artifacts.
	if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteFile(filepath.Join(dir, "report.json")); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, "events.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := eventlog.WriteJSONL(f, events.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocalEngineQuarantineSidelinesPoisonPoint: one sweep point that can
// never succeed trips the breaker after N consecutive failed attempts and
// stops consuming the retry budget; every other run still completes — the
// poisoned point must not starve the pool.
func TestLocalEngineQuarantinePinsSidelining(t *testing.T) {
	runs, err := testCampaign(10).EnumerateRuns()
	if err != nil {
		t.Fatal(err)
	}
	var poisonCalls int32
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		if params["i"] == "3" {
			atomic.AddInt32(&poisonCalls, 1)
			return resilience.MarkTransient(fmt.Errorf("poison point"))
		}
		return nil
	})
	events := eventlog.NewLog()
	eng := &LocalEngine{
		Executor: reg, Workers: 2, Events: events,
		Resilience: &resilience.Config{
			Retry:           resilience.RetryPolicy{MaxAttempts: 50},
			QuarantineAfter: 3,
			Sleep:           noSleep,
		},
	}
	results, report, err := eng.RunCampaign(context.Background(), "test", runs)
	if err != nil {
		t.Fatal(err)
	}
	// The breaker pins sidelining at exactly QuarantineAfter attempts, far
	// below the 50-attempt budget.
	if got := atomic.LoadInt32(&poisonCalls); got != 3 {
		t.Fatalf("poison point executed %d times, want exactly 3 (the quarantine threshold)", got)
	}
	var quarantined, succeeded int
	for _, r := range results {
		if r.Quarantined {
			quarantined++
			if r.Run.Params["i"] != "3" {
				t.Fatalf("wrong run quarantined: %s", r.Run.ID)
			}
		}
		if r.Status == provenance.StatusSucceeded {
			succeeded++
		}
	}
	if quarantined != 1 || succeeded != 9 {
		t.Fatalf("quarantined=%d succeeded=%d", quarantined, succeeded)
	}
	if report.Quarantined != 1 || len(report.Points) != 1 || report.Points[0] != "i=3" {
		t.Fatalf("report = %+v", report)
	}
	var sawEvent bool
	for _, ev := range events.Snapshot() {
		if ev.Type == eventlog.RunQuarantined {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatal("no run.quarantined event journaled")
	}
}

// TestLocalEngineStopConditionAborts: when the failure fraction crosses the
// policy, the campaign aborts gracefully — undispatched runs report skipped
// and the completeness report says why.
func TestLocalEngineStopConditionAborts(t *testing.T) {
	runs, err := testCampaign(40).EnumerateRuns()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewFuncRegistry("work")
	reg.Register("work", func(map[string]string) error {
		return resilience.MarkPermanent(fmt.Errorf("always broken"))
	})
	events := eventlog.NewLog()
	eng := &LocalEngine{
		Executor: reg, Workers: 1, Events: events,
		Resilience: &resilience.Config{
			Stop:  resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4},
			Sleep: noSleep,
		},
	}
	results, report, err := eng.RunCampaign(context.Background(), "test", runs)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Aborted || report.Reason == "" {
		t.Fatalf("campaign did not abort: %+v", report)
	}
	if report.Skipped == 0 {
		t.Fatal("abort skipped nothing — the breaker tripped too late or not at all")
	}
	var skipped int
	for _, r := range results {
		if r.Status == provenance.StatusSkipped {
			skipped++
		}
	}
	if skipped != report.Skipped {
		t.Fatalf("results show %d skipped, report %d", skipped, report.Skipped)
	}
	if report.Failed+report.Skipped != 40 {
		t.Fatalf("runs unaccounted: %+v", report)
	}
	var sawAbort bool
	for _, ev := range events.Snapshot() {
		if ev.Type == eventlog.CampaignAborted {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Fatal("no campaign.aborted event")
	}
}

// TestAbortLeavesRunsUnderWayTheirRetries pins what the in-process engines do
// with a transient failure that settles after the stop condition tripped — a
// case only more than one worker, or node, can produce. LocalEngine lets the
// run use its budget (only a cancelled campaign halts its retries); SimEngine
// grants the retry too, and the run parked on its backoff is then cleared
// with the queue and skipped. Neither ends it failed with budget left. And no
// run starts after the trip: the one LocalEngine was holding for the next free
// worker is skipped like the rest (the report's one failed, two skipped).
func TestAbortLeavesRunsUnderWayTheirRetries(t *testing.T) {
	cfg := func(journal *resilience.Journal) *resilience.Config {
		return &resilience.Config{
			Retry:   resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Minute},
			Stop:    resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 1},
			Journal: journal, Sleep: noSleep,
		}
	}
	// verbs reads back what the journal says happened to run id.
	verbs := func(t *testing.T, path, id string) string {
		recs, err := resilience.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range recs {
			if r.Run == id {
				out = append(out, fmt.Sprintf("%s/%d", r.Event, r.Attempt))
			}
		}
		return strings.Join(out, " ")
	}

	t.Run("local", func(t *testing.T) {
		runs, err := testCampaign(4).EnumerateRuns()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "attempts.jsonl")
		journal, err := resilience.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		events := eventlog.NewLog()
		aborted := func() bool {
			for _, ev := range events.Snapshot() {
				if ev.Type == eventlog.CampaignAborted {
					return true
				}
			}
			return false
		}
		var slow int32
		reg := NewFuncRegistry("work")
		reg.Register("work", func(params map[string]string) error {
			// Run 0 is under way before anything fails, and its first attempt
			// fails only once another worker's failure has tripped the stop
			// condition.
			wait := func(cond func() bool) {
				for deadline := time.Now().Add(10 * time.Second); !cond() && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			if params["i"] != "0" {
				wait(func() bool { return atomic.LoadInt32(&slow) > 0 })
				return resilience.MarkPermanent(fmt.Errorf("broken"))
			}
			if atomic.AddInt32(&slow, 1) > 1 {
				return nil
			}
			wait(aborted)
			return fmt.Errorf("flaky")
		})
		eng := &LocalEngine{Executor: reg, Workers: 2, Events: events, Resilience: cfg(journal)}
		results, report, err := eng.RunCampaign(context.Background(), "test", runs)
		if err != nil {
			t.Fatal(err)
		}
		journal.Close()
		if r := results[0]; r.Status != provenance.StatusSucceeded || r.Attempts != 2 {
			t.Errorf("the run under way ended %+v, want succeeded on its second attempt", r)
		}
		want := resilience.CompletenessReport{Total: 4, Succeeded: 1, Failed: 1, Skipped: 2, Retries: 1, Aborted: true, Reason: report.Reason}
		if report.Points = nil; !reflect.DeepEqual(report, want) {
			t.Errorf("report %+v, want %+v", report, want)
		}
		if got := verbs(t, path, runs[0].ID); got != "start/1 failure/1 start/2 success/2" {
			t.Errorf("journal of the run under way: %s", got)
		}
	})

	t.Run("sim", func(t *testing.T) {
		runs := simRuns(t, 4)
		path := filepath.Join(t.TempDir(), "attempts.jsonl")
		journal, err := resilience.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		// Two nodes: run 0 takes 20 s and fails transiently, run 1 takes 10 s
		// and fails for good — the latch trips while run 0 is executing.
		e := &SimEngine{
			Durations: func(run cheetah.Run, _ *rand.Rand) float64 {
				if run.ID == runs[0].ID {
					return 20
				}
				return 10
			},
			FaultModel: func(run cheetah.Run, _ int, _ *rand.Rand) error {
				if run.ID == runs[0].ID {
					return fmt.Errorf("flaky")
				}
				return resilience.MarkPermanent(fmt.Errorf("broken"))
			},
			Resilience: cfg(journal),
		}
		out, err := e.RunToCompletion(runs, 2, 3600, Dynamic, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		journal.Close()
		want := resilience.CompletenessReport{Total: 4, Failed: 1, Skipped: 3, Retries: 1, Aborted: true, Reason: out.Report.Reason}
		if out.Report.Points = nil; !reflect.DeepEqual(out.Report, want) {
			t.Errorf("report %+v, want %+v", out.Report, want)
		}
		if got := verbs(t, path, runs[0].ID); got != "start/1 failure/1 skipped/1" {
			t.Errorf("journal of the run under way: %s", got)
		}
	})
}

// TestLocalEngineRunDeadline: an attempt that overruns the per-run deadline
// is cancelled, classified deadline, and not retried.
func TestLocalEngineRunDeadline(t *testing.T) {
	runs, err := testCampaign(1).EnumerateRuns()
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	exec := &ctxFuncExecutor{fn: func(ctx context.Context, run cheetah.Run) error {
		atomic.AddInt32(&calls, 1)
		<-ctx.Done() // wedged until the deadline kills it
		return ctx.Err()
	}}
	eng := &LocalEngine{
		Executor: exec, Workers: 1,
		Resilience: &resilience.Config{
			Retry:       resilience.RetryPolicy{MaxAttempts: 5},
			RunDeadline: 20 * time.Millisecond,
			Sleep:       noSleep,
		},
	}
	results, report, err := eng.RunCampaign(context.Background(), "test", runs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Status != provenance.StatusFailed {
		t.Fatalf("result = %+v", results[0])
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("deadline-exceeded run retried: %d attempts", got)
	}
	if report.Failed != 1 {
		t.Fatalf("report = %+v", report)
	}
}

// ctxFuncExecutor adapts a context-aware func to ContextExecutor.
type ctxFuncExecutor struct {
	fn func(ctx context.Context, run cheetah.Run) error
}

func (e *ctxFuncExecutor) Execute(run cheetah.Run) error {
	return e.fn(context.Background(), run)
}

func (e *ctxFuncExecutor) ExecuteContext(ctx context.Context, run cheetah.Run) error {
	return e.fn(ctx, run)
}

// TestKillAndResumeComposesWithMemo is the crash-resume acceptance test: a
// campaign killed mid-flight resumes via the attempt journal, and the memo
// cache guarantees already-completed work is never re-executed — the
// cached-run count is pinned to what finished before the kill.
func TestKillAndResumeComposesWithMemo(t *testing.T) {
	dir := t.TempDir()
	m := memoCampaign(t, 12)
	journalPath := filepath.Join(dir, "attempts.jsonl")

	// Phase 1: execute with a campaign context that is cancelled after 5
	// completions — the "kill".
	ctx, cancel := context.WithCancel(context.Background())
	var phase1 int64
	reg := NewFuncRegistry("app")
	reg.Register("app", func(map[string]string) error {
		if atomic.AddInt64(&phase1, 1) == 5 {
			cancel()
		}
		return nil
	})
	journal, err := resilience.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	memo := newMemo(t, dir)
	eng := &LocalEngine{
		Executor: reg, Workers: 1, Memo: memo,
		Resilience: &resilience.Config{Journal: journal, Sleep: noSleep},
	}
	results, _, err := eng.RunCampaign(ctx, m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	var finished int
	for _, r := range results {
		if r.Status == provenance.StatusSucceeded {
			finished++
		}
	}
	if finished == 0 || finished == len(m.Runs) {
		t.Fatalf("kill produced no partial campaign: %d/%d finished", finished, len(m.Runs))
	}

	// The journal knows exactly what remains.
	recs, err := resilience.ReadJournalFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	state := resilience.Replay(recs)
	var ids []string
	for _, r := range m.Runs {
		ids = append(ids, r.ID)
	}
	remaining := state.Remaining(ids)
	if len(remaining) != len(m.Runs)-finished {
		t.Fatalf("journal says %d remain, want %d", len(remaining), len(m.Runs)-finished)
	}

	// Phase 2: resume over the FULL run list. The memo satisfies everything
	// phase 1 finished; only the remainder executes.
	var phase2 int64
	reg2 := NewFuncRegistry("app")
	reg2.Register("app", func(map[string]string) error {
		atomic.AddInt64(&phase2, 1)
		return nil
	})
	journal2, err := resilience.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	eng2 := &LocalEngine{
		Executor: reg2, Workers: 2, Memo: newMemo(t, dir),
		Resilience: &resilience.Config{Journal: journal2, Sleep: noSleep},
	}
	results2, report2, err := eng2.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	var cached int
	for _, r := range results2 {
		if r.Status != provenance.StatusSucceeded {
			t.Fatalf("resume left run %s in %s", r.Run.ID, r.Status)
		}
		if r.Cached {
			cached++
		}
	}
	if cached != finished {
		t.Fatalf("resume re-executed finished work: cached=%d, want %d", cached, finished)
	}
	if got := atomic.LoadInt64(&phase2); got != int64(len(m.Runs)-finished) {
		t.Fatalf("resume executed %d runs, want %d", got, len(m.Runs)-finished)
	}
	if !report2.Complete() {
		t.Fatalf("resume report incomplete: %+v", report2)
	}
}

// TestSimEngineChaosVirtualTimeRetries is the simulated half of the chaos
// acceptance test: p=0.3 injected faults plus node failures, multi-minute
// backoff schedule — the campaign still completes every run, and because
// retries advance only virtual time the whole thing takes well under a
// second of wall clock.
func TestSimEngineChaosVirtualTimeRetries(t *testing.T) {
	runs := simRuns(t, 40)
	journal, err := resilience.OpenJournal(filepath.Join(t.TempDir(), "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	e := &SimEngine{
		Durations:  LogNormalDurations(100, 0.5),
		Seed:       9,
		Failures:   hpcsim.FailureConfig{MTTF: 6 * 3600, RepairTime: 600},
		FaultModel: FlakyFaults(0.3),
		Resilience: &resilience.Config{
			// 2-minute base backoff: minutes of simulated waiting per retry.
			Retry:   resilience.RetryPolicy{MaxAttempts: 10, BaseDelay: 2 * time.Minute},
			Journal: journal,
			Seed:    11,
		},
	}
	start := time.Now()
	out, err := e.RunToCompletion(runs, 8, 4*3600, Dynamic, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("simulated chaos took %s wall clock — backoff leaked into real time", wall)
	}
	if !out.Report.Complete() || out.Report.Succeeded != 40 {
		t.Fatalf("report = %+v", out.Report)
	}
	if out.Report.Retries == 0 {
		t.Fatal("no retries recorded under p=0.3 faults")
	}
	if len(out.Failed) != 0 {
		t.Fatalf("lost runs: %v", out.Failed)
	}
}

// TestSimEngineChaosMatchesFaultFreeCompletion: the set of completed runs
// under chaos equals the fault-free baseline — zero lost runs, deterministic.
func TestSimEngineChaosMatchesFaultFreeCompletion(t *testing.T) {
	runs := simRuns(t, 25)
	run := func(fm FaultModel) map[string]bool {
		e := &SimEngine{
			Durations:  LogNormalDurations(50, 0.3),
			Seed:       4,
			FaultModel: fm,
			Resilience: &resilience.Config{
				Retry: resilience.RetryPolicy{MaxAttempts: 8, BaseDelay: time.Minute},
				Seed:  5,
			},
		}
		out, err := e.RunToCompletion(runs, 5, 2*3600, Dynamic, 6, 40)
		if err != nil {
			t.Fatal(err)
		}
		done := map[string]bool{}
		total := 0
		for _, n := range out.PerAllocationCompleted {
			total += n
		}
		if total != len(runs) {
			t.Fatalf("completed %d runs, want %d", total, len(runs))
		}
		for _, id := range out.Failed {
			done[id] = false
		}
		return done
	}
	if len(run(nil)) != 0 || len(run(FlakyFaults(0.3))) != 0 {
		t.Fatal("terminal failures under recoverable chaos")
	}
}

// TestSimEngineQuarantineAndTerminalFailure: a run that fails every attempt
// exhausts its budget (or trips quarantine) and lands in Failed — terminal,
// never resubmitted, while the rest of the campaign completes.
func TestSimEngineQuarantineAndTerminalFailure(t *testing.T) {
	runs := simRuns(t, 10)
	poison := runs[3].ID
	fm := func(run cheetah.Run, attempt int, rng *rand.Rand) error {
		if run.ID == poison {
			return resilience.MarkTransient(fmt.Errorf("poison"))
		}
		return nil
	}
	e := &SimEngine{
		Durations:  LogNormalDurations(30, 0.2),
		Seed:       8,
		FaultModel: fm,
		Resilience: &resilience.Config{
			Retry:           resilience.RetryPolicy{MaxAttempts: 20, BaseDelay: 30 * time.Second},
			QuarantineAfter: 4,
			Seed:            2,
		},
	}
	out, err := e.RunToCompletion(runs, 4, 3600, Dynamic, 12, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failed) != 1 || out.Failed[0] != poison {
		t.Fatalf("Failed = %v, want [%s]", out.Failed, poison)
	}
	if out.Report.Quarantined != 1 {
		t.Fatalf("report = %+v", out.Report)
	}
	if out.Report.Succeeded != 9 {
		t.Fatalf("healthy runs lost: %+v", out.Report)
	}
}

// TestSimEngineJournalVirtualTimestamps: journal records from the simulated
// engine are stamped in virtual time — successive retries of a multi-minute
// backoff schedule appear minutes apart on the journal clock even though the
// test ran in milliseconds.
func TestSimEngineJournalVirtualTimestamps(t *testing.T) {
	runs := simRuns(t, 5)
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	journal, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	e := &SimEngine{
		Durations:  LogNormalDurations(60, 0.2),
		Seed:       3,
		FaultModel: FlakyFaults(0.5),
		Resilience: &resilience.Config{
			Retry:   resilience.RetryPolicy{MaxAttempts: 10, BaseDelay: 5 * time.Minute},
			Journal: journal,
			Seed:    1,
		},
	}
	if _, err := e.RunToCompletion(runs, 2, 8*3600, Dynamic, 1, 20); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := resilience.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty journal")
	}
	var span time.Duration
	for _, r := range recs {
		if d := r.Time.Sub(time.Unix(0, 0)); d > span {
			span = d
		}
	}
	if span < time.Minute {
		t.Fatalf("journal spans %s of virtual time — stamps not on the virtual clock", span)
	}
}

package remote

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry/eventlog"
)

// statusCampaign materialises an n-run campaign directory.
func statusCampaign(t *testing.T, n int) (string, *cheetah.Manifest) {
	t.Helper()
	values := make([]string, n)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	m, err := cheetah.BuildManifest(cheetah.Campaign{Name: "statuses", App: "work",
		Groups: []cheetah.SweepGroup{{Name: "g", Nodes: 1, WalltimeMinutes: 1,
			Sweeps: []cheetah.Sweep{{Name: "s", Parameters: []cheetah.Parameter{{Name: "i", Values: values}}}}}}})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return dir, m
}

// journalBacks fails the test if dir's status log calls a run finished that
// the journal, read afterwards, does not.
func journalBacks(t *testing.T, dir string) {
	t.Helper()
	statuses, err := cheetah.RunStatuses(dir)
	if err != nil {
		t.Error(err)
		return
	}
	recs, err := resilience.ReadJournalFile(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Error(err)
		return
	}
	st := resilience.Replay(recs)
	for id, status := range statuses {
		if status == cheetah.RunSucceeded && !st.Done[id] || status == cheetah.RunFailed && !st.Failed[id] {
			t.Errorf("status log says %s is %s; the journal does not (done %v, failed %v)", id, status, st.Done[id], st.Failed[id])
		}
	}
}

// TestCoordinatorLeavesStatusesTerminal is the coordinator's half of
// savanna's TestLocalEngineLeavesStatusesTerminal: on normal return, after a
// stop-condition abort and after a context cancel, Status(dir) matches the
// results — terminal for every run that finished, pending for every run
// skipped — and the status log was never ahead of the journal (checked from
// the recorder's probe on both sides of every status write).
func TestCoordinatorLeavesStatusesTerminal(t *testing.T) {
	const n = 40
	for _, c := range []struct {
		name    string
		stop    resilience.StopPolicy
		fail    func(i string) bool
		cancel  string
		skipped bool
	}{
		{name: "normal", fail: func(i string) bool { return i == "5" }},
		{name: "abort", stop: resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4},
			fail: func(string) bool { return true }, skipped: true},
		{name: "cancel", fail: func(string) bool { return false }, cancel: "9", skipped: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, m := statusCampaign(t, n)
			journal, err := resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			ln := listen(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			wctx, stopWorkers := context.WithCancel(context.Background())
			defer stopWorkers()
			wait := startWorkers(t, wctx, ln.Addr().String(), 1, 1, func(string) savanna.Executor {
				return execFn(func(_ context.Context, run cheetah.Run) error {
					if run.Params["i"] == c.cancel {
						cancel()
					}
					if c.fail(run.Params["i"]) {
						return resilience.MarkPermanent(fmt.Errorf("planted failure"))
					}
					return nil
				})
			})
			e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: time.Second, CampaignDir: dir,
				Resilience: &resilience.Config{Journal: journal, Stop: c.stop},
				probe: func(stage savanna.RecorderStage, _ []resilience.AttemptRecord) bool {
					if stage != savanna.BeforeJournal {
						journalBacks(t, dir)
					}
					return false
				}}
			results, _, err := e.RunCampaign(ctx, m.Campaign.Name, m.Runs)
			if err != nil {
				t.Fatal(err)
			}
			stopWorkers()
			wait()
			statuses, err := cheetah.RunStatuses(dir)
			if err != nil {
				t.Fatal(err)
			}
			skipped := 0
			for _, r := range results {
				want := map[provenance.Status]cheetah.RunStatus{
					provenance.StatusSucceeded: cheetah.RunSucceeded,
					provenance.StatusFailed:    cheetah.RunFailed,
					provenance.StatusSkipped:   cheetah.RunPending,
				}[r.Status]
				if r.Status == provenance.StatusSkipped {
					skipped++
				}
				if statuses[r.Run.ID] != want {
					t.Errorf("%s: result %s, directory says %q", r.Run.ID, r.Status, statuses[r.Run.ID])
				}
			}
			if c.skipped == (skipped == 0) {
				t.Fatalf("%d runs skipped — the scenario did not play out", skipped)
			}
			journalBacks(t, dir)
		})
	}
}

// TestCoordinateResumeReconcilesStatus: the predecessor journaled ten
// successes but died before the tenth's status line. The successor skips what
// the journal proves done, so it appends the journal's verdicts before
// dispatching; afterwards the directory agrees with replay and no finished
// run was executed again.
func TestCoordinateResumeReconcilesStatus(t *testing.T) {
	dir, m := statusCampaign(t, 30)
	jpath := filepath.Join(dir, "attempts.jsonl")
	j, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.OpenEpoch("primary"); err != nil {
		t.Fatal(err)
	}
	log, err := cheetah.OpenStatusLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.Runs[:10] {
		j.Append(resilience.AttemptRecord{Run: r.ID, Point: savanna.PointKey(r),
			Attempt: 1, Event: resilience.AttemptSuccess, Worker: "w0", Time: time.Now()})
		if i < 9 {
			if err := log.Set(cheetah.StatusLine{Run: r.ID, Status: cheetah.RunSucceeded}); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	// No Close on the status log before the handover: the predecessor was killed.
	t.Cleanup(func() { log.Close() })

	ln := listen(t)
	executed := map[string]*int64{}
	for _, r := range m.Runs {
		executed[r.ID] = new(int64)
	}
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	wait := startWorkers(t, wctx, ln.Addr().String(), 2, 1, func(string) savanna.Executor {
		return execFn(func(_ context.Context, run cheetah.Run) error {
			atomic.AddInt64(executed[run.ID], 1)
			return nil
		})
	})
	e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: time.Second, CampaignDir: dir}
	_, report, info, err := Coordinate(context.Background(), CoordinateConfig{
		Engine: e, Campaign: m.Campaign.Name, Runs: m.Runs, Journal: jpath,
		Holder: "successor", Resume: true, LeaseTTL: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	stopWorkers()
	wait()
	if !report.Complete() || info.Done != 10 || info.Dispatched != 20 {
		t.Fatalf("report %+v, handover %+v", report, info)
	}
	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	st := resilience.Replay(recs)
	statuses, err := cheetah.RunStatuses(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range m.Runs {
		if !st.Done[r.ID] || statuses[r.ID] != cheetah.RunSucceeded {
			t.Errorf("%s: journal done = %v, directory says %q", r.ID, st.Done[r.ID], statuses[r.ID])
		}
		want := int64(1)
		if i < 10 {
			want = 0
		}
		if got := atomic.LoadInt64(executed[r.ID]); got != want {
			t.Errorf("%s executed %d times by the successor, want %d", r.ID, got, want)
		}
	}
}

// TestCoordinatorStatusWriteFailureWarnsOnce: an unwritable status log costs
// the distributed campaign one warning per kind of failure, nothing else.
func TestCoordinatorStatusWriteFailureWarnsOnce(t *testing.T) {
	dir, m := statusCampaign(t, 30)
	journal, err := resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		if filepath.Base(path) != "status.log" {
			return nil
		}
		switch op {
		case appendlog.OpWrite:
			return syscall.ENOSPC
		case appendlog.OpSync:
			return syscall.EIO
		}
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()
	ln := listen(t)
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	wait := startWorkers(t, wctx, ln.Addr().String(), 2, 1, func(string) savanna.Executor {
		return execFn(func(context.Context, cheetah.Run) error { return nil })
	})
	events := eventlog.NewLog()
	e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: time.Second, CampaignDir: dir, Events: events,
		Resilience: &resilience.Config{Journal: journal}}
	_, report, err := e.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	stopWorkers()
	wait()
	if !report.Complete() || report.Succeeded != 30 {
		t.Fatalf("report = %+v", report)
	}
	var appendWarns, closeWarns int
	for _, ev := range events.Snapshot() {
		if ev.Type != eventlog.CampaignStatusLog {
			continue
		}
		switch {
		case ev.Level == eventlog.Warn && strings.Contains(ev.Msg, "appending to status.log"):
			appendWarns++
		case ev.Level == eventlog.Warn && strings.Contains(ev.Msg, "closing status.log"):
			closeWarns++
		default:
			t.Errorf("unexpected status-log event %v %q", ev.Level, ev.Msg)
		}
	}
	if appendWarns != 1 || closeWarns != 1 {
		t.Fatalf("%d append warnings and %d close warnings, want 1 and 1", appendWarns, closeWarns)
	}
	recs, err := resilience.ReadJournalFile(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if done := len(resilience.Replay(recs).Done); done != 30 {
		t.Fatalf("journal proves %d runs done, want 30", done)
	}
}

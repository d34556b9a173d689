package savanna

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry/eventlog"
)

// statusCampaign materialises an n-run campaign and opens a journal beside it.
func statusCampaign(t *testing.T, n int) (dir string, m *cheetah.Manifest, journal *resilience.Journal) {
	t.Helper()
	m, err := cheetah.BuildManifest(testCampaign(n))
	if err != nil {
		t.Fatal(err)
	}
	if dir, err = m.Materialize(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if journal, err = resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	return dir, m, journal
}

// journalBacks fails the test if dir's status log calls a run finished that
// the journal, read afterwards, does not: the journal line for a terminal
// transition is written before its status line, so the projection never runs
// ahead of the record.
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

// TestLocalEngineLeavesStatusesTerminal: when RunCampaign or RunSets returns
// — normally, after a stop-condition abort, or after its context was
// cancelled — every run the engine touched has a terminal status in the
// campaign directory that matches its result, every run it skipped is still
// pending, and at no point during the campaign was the status log ahead of
// the journal (checked from the journal's clock hook, which runs just before
// every journal append).
func TestLocalEngineLeavesStatusesTerminal(t *testing.T) {
	const n = 24
	for _, c := range []struct {
		name    string
		sets    int
		stop    resilience.StopPolicy
		fail    func(i string) bool
		cancel  string // cancel the campaign context from inside this run
		skipped bool   // some runs must end up skipped
	}{
		{name: "RunCampaign", fail: func(i string) bool { return i == "5" }},
		{name: "RunSets", sets: 5, fail: func(i string) bool { return i == "5" }},
		{name: "abort", stop: resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4},
			fail: func(string) bool { return true }, skipped: true},
		{name: "RunSets abort", sets: 5, stop: resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4},
			fail: func(string) bool { return true }, skipped: true},
		{name: "cancel", fail: func(string) bool { return false }, cancel: "7", skipped: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, m, journal := statusCampaign(t, n)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reg := NewFuncRegistry("work")
			reg.Register("work", func(params map[string]string) error {
				if params["i"] == c.cancel {
					cancel()
				}
				if c.fail(params["i"]) {
					return resilience.MarkPermanent(fmt.Errorf("planted failure"))
				}
				return nil
			})
			eng := &LocalEngine{Executor: reg, Workers: 2, CampaignDir: dir,
				Resilience: &resilience.Config{Journal: journal, Stop: c.stop, Sleep: noSleep,
					Now: func() time.Time { journalBacks(t, dir); return time.Now() }}}
			var results []RunResult
			var err error
			if c.sets > 0 {
				results, err = eng.RunSets(m.Campaign.Name, m.Runs, c.sets)
			} else {
				results, _, err = eng.RunCampaign(ctx, m.Campaign.Name, m.Runs)
			}
			if err != nil {
				t.Fatal(err)
			}
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

// okExecutor succeeds at everything.
func okExecutor() *FuncRegistry {
	reg := NewFuncRegistry("work")
	reg.Register("work", func(map[string]string) error { return nil })
	return reg
}

// TestLocalEngineCachedRunStatus covers the memoized path, which sets a
// status without executing anything.
func TestLocalEngineCachedRunStatus(t *testing.T) {
	dir, m, journal := statusCampaign(t, 6)
	eng := &LocalEngine{Executor: okExecutor(), Workers: 2, CampaignDir: dir,
		Memo: newMemo(t, t.TempDir()), Resilience: &resilience.Config{Journal: journal,
			Now: func() time.Time { journalBacks(t, dir); return time.Now() }}}
	for pass := 0; pass < 2; pass++ {
		results, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Cached != (pass == 1) {
				t.Fatalf("pass %d: %s cached = %v", pass, r.Run.ID, r.Cached)
			}
		}
		sum, err := cheetah.Status(dir)
		if err != nil {
			t.Fatal(err)
		}
		if sum.ByStatus[cheetah.RunSucceeded] != 6 {
			t.Fatalf("pass %d: %+v", pass, sum)
		}
		journalBacks(t, dir)
	}
}

// TestLocalEngineLegacyDirectory: an engine running two runs of a
// parent-format directory (a status file per run, no log) logs those two;
// the rest still answer from their files.
func TestLocalEngineLegacyDirectory(t *testing.T) {
	dir, m, _ := statusCampaign(t, 6)
	for i, run := range m.Runs {
		st := cheetah.RunPending
		if i == 5 {
			st = cheetah.RunFailed
		}
		if err := os.WriteFile(filepath.Join(dir, run.ID, "status"), []byte(st), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng := &LocalEngine{Executor: okExecutor(), Workers: 2, CampaignDir: dir}
	if _, err := eng.RunAll(m.Campaign.Name, m.Runs[:2]); err != nil {
		t.Fatal(err)
	}
	sum, err := cheetah.Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByStatus[cheetah.RunSucceeded] != 2 || sum.ByStatus[cheetah.RunPending] != 3 || sum.ByStatus[cheetah.RunFailed] != 1 {
		t.Fatalf("mixed directory: %+v", sum)
	}
}

// TestStatusWriteFailureWarnsOnce: with the status log unwritable (every
// append fails with ENOSPC, the closing fsync with EINVAL) the campaign still
// completes and the journal is whole — and the failure is said once per kind,
// not dropped and not once per run.
func TestStatusWriteFailureWarnsOnce(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	dir, m, journal := statusCampaign(t, 30)
	if err := os.Symlink("/dev/full", filepath.Join(dir, "status.log")); err != nil {
		t.Fatal(err)
	}
	events := eventlog.NewLog()
	eng := &LocalEngine{Executor: okExecutor(), Workers: 2, CampaignDir: dir, Events: events,
		Resilience: &resilience.Config{Journal: journal}}
	_, report, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Complete() || report.Succeeded != 30 {
		t.Fatalf("report = %+v", report)
	}
	var appendWarns, closeWarns int
	for _, ev := range events.Snapshot() {
		if ev.Type != eventlog.CampaignStatusLog {
			continue
		}
		if ev.Level != eventlog.Warn {
			t.Errorf("status-log event at level %v", ev.Level)
		}
		switch {
		case strings.Contains(ev.Msg, "appending to status.log") && strings.Contains(ev.Msg, "no space left"):
			appendWarns++
		case strings.Contains(ev.Msg, "closing status.log"):
			closeWarns++
		default:
			t.Errorf("unexpected status-log event %q", ev.Msg)
		}
	}
	if appendWarns != 1 || closeWarns != 1 {
		t.Fatalf("%d append warnings and %d close warnings for 60 failed appends and one failed close, want 1 and 1", appendWarns, closeWarns)
	}
	recs, err := resilience.ReadJournalFile(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if done := len(resilience.Replay(recs).Done); done != 30 {
		t.Fatalf("journal proves %d runs done, want 30", done)
	}
}

// TestResumeReconcilesStatusFromJournal: the engine dies between a run's
// journal line and its status line, so the directory says "running" for a run
// the journal proves done. Resume skips that run — nothing would ever rewrite
// it — so ReconcileStatus appends the journal's verdict first. Afterwards the
// directory agrees with replay and the run was executed once.
func TestResumeReconcilesStatusFromJournal(t *testing.T) {
	dir, m, journal := statusCampaign(t, 10)
	var mu sync.Mutex
	executed := map[string]int{}
	var broken atomic.Bool
	broken.Store(true)
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		mu.Lock()
		executed[params["i"]]++
		mu.Unlock()
		if params["i"] == "8" && broken.Load() {
			return resilience.MarkPermanent(fmt.Errorf("not this time"))
		}
		return nil
	})
	eng := &LocalEngine{Executor: reg, Workers: 1, CampaignDir: dir,
		Resilience: &resilience.Config{Journal: journal}}
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs[:9]); err != nil {
		t.Fatal(err)
	}

	// The crash: the log loses run 7's "succeeded" line and all of run 8's
	// ("running", "failed"), as if the process died right after journaling.
	path := filepath.Join(dir, "status.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := strings.Index(string(data), `{"run":"`+m.Runs[7].ID+`","status":"succeeded"}`)
	if cut < 0 {
		t.Fatalf("no succeeded line for %s in %q", m.Runs[7].ID, data)
	}
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if st, _ := cheetah.RunStatuses(dir); st[m.Runs[7].ID] != cheetah.RunRunning || st[m.Runs[8].ID] != cheetah.RunPending {
		t.Fatalf("after the cut run 7 is %q and run 8 %q, want running and pending", st[m.Runs[7].ID], st[m.Runs[8].ID])
	}

	// Resume as fairctl resume does: replay, reconcile, run what is owed.
	recs, err := resilience.ReadJournalFile(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	st := resilience.Replay(recs)
	fixed, err := ReconcileStatus(dir, st)
	if err != nil || fixed != 2 {
		t.Fatalf("ReconcileStatus corrected %d statuses, err %v; want run 7 → succeeded and run 8 → failed", fixed, err)
	}
	statuses, _ := cheetah.RunStatuses(dir)
	for _, run := range m.Runs {
		want := cheetah.RunPending
		if st.Done[run.ID] {
			want = cheetah.RunSucceeded
		} else if st.Failed[run.ID] {
			want = cheetah.RunFailed
		}
		if statuses[run.ID] != want {
			t.Errorf("%s: directory says %q, replay says %q", run.ID, statuses[run.ID], want)
		}
	}
	if fixed, err := ReconcileStatus(dir, st); err != nil || fixed != 0 {
		t.Fatalf("a second reconcile corrected %d statuses, err %v", fixed, err)
	}

	broken.Store(false)
	var todo []cheetah.Run
	for _, run := range m.Runs {
		if !st.Done[run.ID] {
			todo = append(todo, run)
		}
	}
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, todo); err != nil {
		t.Fatal(err)
	}
	sum, err := cheetah.Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.ByStatus[cheetah.RunSucceeded] != 10 {
		t.Fatalf("after resume: %+v", sum)
	}
	if executed["7"] != 1 || executed["8"] != 2 || executed["9"] != 1 {
		t.Fatalf("executions: run 7 ×%d (want 1: done in the journal), run 8 ×%d (want 2), run 9 ×%d (want 1)",
			executed["7"], executed["8"], executed["9"])
	}
}

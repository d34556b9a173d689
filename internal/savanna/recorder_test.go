package savanna

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
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
// the journal, read afterwards, does not: the recorder writes a batch's
// journal lines before its status lines, so the projection never runs ahead
// of the record.
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

// backsAtStatusWrites is a recorder probe that runs journalBacks just before
// and just after every status write.
func backsAtStatusWrites(t *testing.T, dir string) func(RecorderStage, []resilience.AttemptRecord) bool {
	return func(stage RecorderStage, _ []resilience.AttemptRecord) bool {
		if stage != BeforeJournal {
			journalBacks(t, dir)
		}
		return false
	}
}

// TestLocalEngineLeavesStatusesTerminal: when RunCampaign or RunSets returns
// — normally, after a stop-condition abort, or after its context was
// cancelled — every run the engine touched has a terminal status in the
// campaign directory that matches its result, every run it skipped is still
// pending, and at no point during the campaign was the status log ahead of
// the journal (checked from the recorder's probe on both sides of every
// status write).
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
			eng := &LocalEngine{Executor: reg, Workers: 2, CampaignDir: dir, probe: backsAtStatusWrites(t, dir),
				Resilience: &resilience.Config{Journal: journal, Stop: c.stop, Sleep: noSleep}}
			var results []RunResult
			var err error
			if c.sets > 0 {
				results, _, err = eng.RunSets(ctx, m.Campaign.Name, m.Runs, c.sets)
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
	eng := &LocalEngine{Executor: okExecutor(), Workers: 2, CampaignDir: dir, probe: backsAtStatusWrites(t, dir),
		Memo: newMemo(t, t.TempDir()), Resilience: &resilience.Config{Journal: journal}}
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

// TestStatusWriteFailureWarnsOnce: with the status log unwritable (every
// append fails with ENOSPC, the closing fsync with EIO) the campaign still
// completes and the journal is whole — and the failure is said once per kind,
// not dropped and not once per run.
func TestStatusWriteFailureWarnsOnce(t *testing.T) {
	dir, m, journal := statusCampaign(t, 30)
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

// TestOneSeamSeesEveryDurableFile: a LocalEngine campaign with a campaign
// directory, a journal and a memo over a CAS opens, writes and fsyncs each of
// its append-only files — the journal, the status log and the action log —
// through appendlog's one failpoint, and publishes its objects through it.
func TestOneSeamSeesEveryDurableFile(t *testing.T) {
	m, err := cheetah.BuildManifest(testCampaign(6))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		mu.Lock()
		seen[string(op)+" "+filepath.Base(path)] = true
		mu.Unlock()
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()

	journal, err := resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	reg := NewFuncRegistry("work")
	reg.Register("work", func(params map[string]string) error {
		return os.WriteFile(filepath.Join(out, params["i"]), []byte("output "+params["i"]), 0o644)
	})
	memo := newMemo(t, t.TempDir())
	memo.Collect = func(run cheetah.Run) (map[string]string, error) {
		return map[string]string{"out": filepath.Join(out, run.Params["i"])}, nil
	}
	eng := &LocalEngine{Executor: reg, Workers: 2, CampaignDir: dir, Memo: memo,
		Resilience: &resilience.Config{Journal: journal}}
	if _, report, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil || !report.Complete() {
		t.Fatalf("campaign: %+v, %v", report, err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"attempts.jsonl", "status.log", "actions.json.log"} {
		for _, op := range []appendlog.Op{appendlog.OpOpen, appendlog.OpWrite, appendlog.OpSync} {
			if !seen[string(op)+" "+name] {
				t.Errorf("the failpoint never saw %s of %s", op, name)
			}
		}
	}
	for i := 0; i < 6; i++ {
		hx := strings.TrimPrefix(string(cas.HashBytes([]byte("output "+strconv.Itoa(i)))), "sha256:")
		if !seen[string(appendlog.OpLink)+" "+hx[2:]] {
			t.Errorf("the failpoint never saw the link that published run %d's output", i)
		}
	}
}

// TestResumeReconcilesStatusFromJournal: the engine dies between a run's
// journal line and its status line, so the directory says "running" for a run
// the journal proves done. Resume skips that run — nothing would ever rewrite
// it — so claiming the campaign appends the journal's verdict first.
// Afterwards the directory agrees with replay and the run was executed once.
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

	// Resume as savanna run does: claim the campaign (which replays the
	// journal and reconciles the directory), then run what is owed.
	journal.Close()
	claimCfg := ClaimConfig{Journal: filepath.Join(dir, "attempts.jsonl"), Holder: "resume", Resume: true, Dir: dir}
	claim, err := ClaimCampaign(context.Background(), claimCfg)
	if err != nil {
		t.Fatal(err)
	}
	if claim.Reconciled != 2 {
		t.Fatalf("the claim corrected %d statuses; want run 7 → succeeded and run 8 → failed", claim.Reconciled)
	}
	st := claim.State
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
	claim.Release()
	if claim, err = ClaimCampaign(context.Background(), claimCfg); err != nil || claim.Reconciled != 0 {
		t.Fatalf("a second claim corrected statuses (%v)", err)
	}
	defer claim.Release()

	broken.Store(false)
	eng.Resilience = &resilience.Config{Journal: claim.Journal}
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, claim.Owed(m.Runs)); err != nil {
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

// countEvents returns how many events of typ the log holds, failing the test
// on one at another level than want.
func countEvents(t *testing.T, events *eventlog.Log, typ string, want eventlog.Level) int {
	t.Helper()
	n := 0
	for _, ev := range events.Snapshot() {
		if ev.Type == typ {
			n++
			if ev.Level != want {
				t.Errorf("%s event at level %v, want %v", typ, ev.Level, want)
			}
		}
	}
	return n
}

// TestEnginesLoudWhenJournalRefuses: a journal that refuses every write (it
// was fenced) costs LocalEngine and SimEngine what it costs the coordinator —
// one campaign.journal Error event naming the first refused run, a count of
// every refused record — and the campaign carries on. With the journal
// refusing, no status line is written either.
func TestEnginesLoudWhenJournalRefuses(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		const n = 12
		dir, m, journal := statusCampaign(t, n)
		journal.Fence()
		events, reg := eventlog.NewLog(), telemetry.NewRegistry()
		eng := &LocalEngine{Executor: okExecutor(), Workers: 2, CampaignDir: dir, Events: events, Metrics: reg,
			Resilience: &resilience.Config{Journal: journal}}
		_, report, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
		if err != nil || !report.Complete() {
			t.Fatalf("report %+v, err %v", report, err)
		}
		if got := countEvents(t, events, eventlog.CampaignJournal, eventlog.Error); got != 1 {
			t.Errorf("%d campaign.journal events, want exactly 1", got)
		}
		for _, ev := range events.Snapshot() {
			if ev.Type == eventlog.CampaignJournal && (!strings.Contains(ev.Msg, "fenced") || ev.Attr("run") == "") {
				t.Errorf("campaign.journal event %q names run %q; want the error and the first refused run", ev.Msg, ev.Attr("run"))
			}
		}
		// A start and a success per run were posted; all were refused.
		if got := reg.Counter("campaign.journal_append_errors_total", "engine", "local").Value(); got != 2*n {
			t.Errorf("journal_append_errors_total = %d, want the %d records posted", got, 2*n)
		}
		if data, _ := os.ReadFile(filepath.Join(dir, "status.log")); len(data) != 0 {
			t.Errorf("status.log holds %q: a batch the journal refused wrote status lines", data)
		}
	})
	t.Run("sim", func(t *testing.T) {
		journal, err := resilience.OpenJournal(filepath.Join(t.TempDir(), "attempts.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		defer journal.Close()
		journal.Fence()
		events, reg := eventlog.NewLog(), telemetry.NewRegistry()
		e := &SimEngine{Durations: LogNormalDurations(60, 0.2), Seed: 3, Events: events, Metrics: reg,
			Resilience: &resilience.Config{Journal: journal}}
		out, err := e.RunToCompletion(simRuns(t, 20), 4, 7200, Dynamic, 1, 5)
		if err != nil || !out.Report.Complete() {
			t.Fatalf("outcome %+v, err %v", out, err)
		}
		if got := countEvents(t, events, eventlog.CampaignJournal, eventlog.Error); got != 1 {
			t.Errorf("%d campaign.journal events, want exactly 1", got)
		}
		if got := reg.Counter("campaign.journal_append_errors_total", "engine", "sim").Value(); got != 40 {
			t.Errorf("journal_append_errors_total = %d, want the 40 records posted", got)
		}
	})
}

// TestProvenanceAppendErrorsAreLoud: the store already holds the id the
// engine's first record will take (a resumed process loads the store and
// numbers from 1 again). The refusal used to vanish; now it is one
// campaign.provenance Warn event and a count, and the other records land.
func TestProvenanceAppendErrorsAreLoud(t *testing.T) {
	m, err := cheetah.BuildManifest(testCampaign(5))
	if err != nil {
		t.Fatal(err)
	}
	prov := provenance.NewStore()
	now := time.Now()
	for _, seq := range []int{1, 3} {
		if err := prov.Append(provenance.Record{ID: fmt.Sprintf("%s/%s#%d", m.Campaign.Name, m.Runs[seq-1].ID, seq),
			Component: "savanna-run", Start: now, End: now, Status: provenance.StatusFailed, CampaignID: "earlier"}); err != nil {
			t.Fatal(err)
		}
	}
	events, reg := eventlog.NewLog(), telemetry.NewRegistry()
	eng := &LocalEngine{Executor: okExecutor(), Workers: 1, Prov: prov, Events: events, Metrics: reg}
	if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil {
		t.Fatal(err)
	}
	if got := countEvents(t, events, eventlog.CampaignProvenance, eventlog.Warn); got != 1 {
		t.Errorf("%d campaign.provenance events, want exactly 1", got)
	}
	if got := reg.Counter("campaign.provenance_append_errors_total", "engine", "local").Value(); got != 2 {
		t.Errorf("provenance_append_errors_total = %d, want 2", got)
	}
	if got := len(prov.Select(provenance.Query{CampaignID: m.Campaign.Name})); got != 3 {
		t.Errorf("%d records of this campaign in the store, want the 3 whose ids were free", got)
	}
}

// openTestRecorder opens a recorder over a fresh journal for tests that
// drive it directly.
func openTestRecorder(t *testing.T, cfg RecorderConfig) (*Recorder, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	journal, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	cfg.Engine, cfg.Journal = "local", journal
	return OpenRecorder(cfg), path
}

// TestRecorderGroupsAreNeverSplit: 10,000 groups of random size, posted from
// four goroutines at a writer slowed so that backlogs form — every journal
// write holds whole groups only, each group's records adjacent and in order.
func TestRecorderGroupsAreNeverSplit(t *testing.T) {
	const groups, posters = 10000, 4
	var batches, writes, records, largest int
	reg := telemetry.NewRegistry()
	r, path := openTestRecorder(t, RecorderConfig{Metrics: reg,
		Probe: func(stage RecorderStage, journal []resilience.AttemptRecord) bool {
			if stage != BeforeJournal {
				return false
			}
			batches++ // Flush's group, alone in a batch, writes nothing
			if len(journal) > 0 {
				writes++
				records += len(journal)
				largest = max(largest, len(journal))
			}
			// Run names the group, Attempt its size, Epoch the record's place.
			for i := 0; i < len(journal); {
				size := journal[i].Attempt
				if i+size > len(journal) {
					t.Errorf("a write of %d records ends %d records into group %s of %d", len(journal), len(journal)-i, journal[i].Run, size)
					return false
				}
				for k := 0; k < size; k++ {
					if rec := journal[i+k]; rec.Run != journal[i].Run || rec.Epoch != int64(k+1) {
						t.Errorf("group %s: record %d of %d is %s/%d", journal[i].Run, k+1, size, rec.Run, rec.Epoch)
						return false
					}
				}
				i += size
			}
			if writes%8 == 0 {
				time.Sleep(200 * time.Microsecond) // the slow writer
			}
			return false
		}})
	var wg sync.WaitGroup
	var dones atomic.Int64
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			var g Group
			for i := 0; i < groups/posters; i++ {
				size := 1 + rng.Intn(9)
				for k := 0; k < size; k++ {
					g.Journal(resilience.AttemptRecord{Run: fmt.Sprintf("g%d-%d", p, i), Attempt: size,
						Event: resilience.AttemptStart, Epoch: int64(k + 1)})
				}
				g.Done(func(ok bool) {
					if ok {
						dones.Add(1)
					}
				})
				r.Post(&g)
			}
		}(p)
	}
	wg.Wait()
	r.Flush()
	if got := dones.Load(); got != groups {
		t.Errorf("after Flush %d of %d callbacks have run", got, groups)
	}
	r.Close()
	recs, err := resilience.ReadJournalFile(path)
	if err != nil || len(recs) != records {
		t.Fatalf("journal holds %d records (%v), the probe saw %d", len(recs), err, records)
	}
	if largest < 2 {
		t.Errorf("no write held more than %d record(s): no backlog formed, nothing was tested", largest)
	}
	if got, counted := reg.Counter("campaign.recorder_records_total", "engine", "local").Value(),
		reg.Counter("campaign.recorder_batches_total", "engine", "local").Value(); got != int64(records) || counted != int64(batches) ||
		reg.Histogram("campaign.recorder_batch_seconds", nil, "engine", "local").Count() != uint64(batches) {
		t.Errorf("instruments say %d records in %d batches; the probe saw %d in %d", got, counted, records, batches)
	}
	t.Logf("%d records in %d writes, largest %d", records, writes, largest)
}

// TestRecorderLoneRecordLeavesAtOnce: nothing waits for a batch to fill — a
// single group on an idle recorder is written and its callback runs with no
// Flush, no Close and no second post.
func TestRecorderLoneRecordLeavesAtOnce(t *testing.T) {
	r, path := openTestRecorder(t, RecorderConfig{})
	defer r.Close()
	var g Group
	g.Journal(resilience.AttemptRecord{Run: "lone", Attempt: 1, Event: resilience.AttemptSuccess, Time: time.Now()})
	written := make(chan bool, 1)
	g.Done(func(ok bool) { written <- ok })
	r.Post(&g)
	select {
	case ok := <-written:
		recs, err := resilience.ReadJournalFile(path)
		if !ok || err != nil || len(recs) != 1 {
			t.Fatalf("callback heard %v with %d records in the journal (%v)", ok, len(recs), err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lone record on an idle recorder was not written")
	}
}

// TestRecorderAbandon: a probe that abandons the recorder stops it where a
// SIGKILL would — nothing after that point is written, no callback runs,
// Flush and Close return, later posts vanish.
func TestRecorderAbandon(t *testing.T) {
	for _, c := range []struct {
		at      RecorderStage
		journal int // records in the journal afterwards
		status  bool
	}{{BeforeJournal, 0, false}, {BeforeStatus, 1, false}, {BeforeDone, 1, true}} {
		dir, m, _ := statusCampaign(t, 2)
		r, path := openTestRecorder(t, RecorderConfig{Dir: dir,
			Probe: func(stage RecorderStage, _ []resilience.AttemptRecord) bool { return stage == c.at }})
		var g Group
		post := func(run string) {
			g.Journal(resilience.AttemptRecord{Run: run, Attempt: 1, Event: resilience.AttemptSuccess, Time: time.Now()})
			g.Status(run, cheetah.RunSucceeded)
			g.Done(func(bool) { t.Errorf("stage %d: a callback ran on an abandoned recorder", c.at) })
			r.Post(&g)
		}
		post(m.Runs[0].ID)
		r.Flush()
		post(m.Runs[1].ID)
		r.Flush()
		r.Close()
		recs, err := resilience.ReadJournalFile(path)
		if err != nil || len(recs) != c.journal {
			t.Errorf("stage %d: %d journal records (%v), want %d", c.at, len(recs), err, c.journal)
		}
		st, err := cheetah.RunStatuses(dir)
		if err != nil || (st[m.Runs[0].ID] == cheetah.RunSucceeded) != c.status || st[m.Runs[1].ID] != cheetah.RunPending {
			t.Errorf("stage %d: statuses %v (%v)", c.at, st, err)
		}
	}
}

// recorderStacks counts the recorder goroutines in a snapshot of every stack
// and returns the snapshot.
func recorderStacks() (int, string) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "savanna.(*Recorder).loop"), stacks
}

// TestNoRecorderGoroutineOutlivesCampaign: whichever way a campaign ends —
// normally, cancelled, aborted by its stop condition, over a fenced journal,
// out of allocations — the recorder goroutine is gone when the engine
// returns.
func TestNoRecorderGoroutineOutlivesCampaign(t *testing.T) {
	if n, _ := recorderStacks(); n != 0 {
		t.Fatalf("%d recorder goroutine(s) before the test", n)
	}
	// Close returns once the loop has closed exited, which its goroutine does
	// on the way out: wait for the goroutine to be gone, bounded, rather than
	// sample the stacks once. A real leak still fails, with its stacks.
	check := func(name string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			n, stacks := recorderStacks()
			if n == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%s: %d recorder goroutine(s) left:\n%s", name, n, stacks)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	local := func(name string, stop resilience.StopPolicy, fail, fence bool, cancelAt string, sets int) {
		dir, m, journal := statusCampaign(t, 16)
		if fence {
			journal.Fence()
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		reg := NewFuncRegistry("work")
		reg.Register("work", func(params map[string]string) error {
			if params["i"] == cancelAt {
				cancel()
			}
			if fail {
				return resilience.MarkPermanent(fmt.Errorf("planted failure"))
			}
			return nil
		})
		eng := &LocalEngine{Executor: reg, Workers: 2, CampaignDir: dir, Prov: provenance.NewStore(),
			Resilience: &resilience.Config{Journal: journal, Stop: stop, Sleep: noSleep}}
		var err error
		if sets > 0 {
			_, _, err = eng.RunSets(ctx, m.Campaign.Name, m.Runs, sets)
		} else {
			_, _, err = eng.RunCampaign(ctx, m.Campaign.Name, m.Runs)
		}
		if err != nil {
			t.Fatal(err)
		}
		check("local " + name)
	}
	abort := resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4}
	local("normal", resilience.StopPolicy{}, false, false, "", 0)
	local("sets", resilience.StopPolicy{}, false, false, "", 5)
	local("cancelled", resilience.StopPolicy{}, false, false, "5", 0)
	local("aborted", abort, true, false, "", 0)
	local("sets aborted", abort, true, false, "", 5)
	local("fenced", resilience.StopPolicy{}, false, true, "", 0)

	sim := func(name string, cfg resilience.Config, faults FaultModel, maxAllocs int, wantErr bool) {
		e := &SimEngine{Durations: LogNormalDurations(600, 0.2), Seed: 3, FaultModel: faults, Resilience: &cfg}
		if _, err := e.RunToCompletion(simRuns(t, 24), 2, 3600, Dynamic, 1, maxAllocs); (err != nil) != wantErr {
			t.Fatalf("sim %s: err = %v", name, err)
		}
		check("sim " + name)
	}
	sim("normal", resilience.Config{}, nil, 10, false)
	sim("aborted", resilience.Config{Stop: abort}, FlakyFaults(1), 10, false)
	sim("out of allocations", resilience.Config{}, nil, 1, true)
	e := &SimEngine{Durations: LogNormalDurations(600, 0.2), Seed: 3}
	if _, err := e.RunAllocation(simRuns(t, 8), 2, 3600, SetSynchronized, 1); err != nil {
		t.Fatal(err)
	}
	check("sim standalone allocation")
}

package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// testRuns builds a deterministic synthetic sweep.
func testRuns(n int) []cheetah.Run {
	runs := make([]cheetah.Run, n)
	for i := range runs {
		runs[i] = cheetah.Run{
			ID:     fmt.Sprintf("run-%05d", i),
			Params: map[string]string{"i": strconv.Itoa(i), "model": "m1"},
		}
	}
	return runs
}

// listen binds an ephemeral coordinator port.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// startWorkers launches n in-process workers against addr, returning a stop
// function that waits for them to exit.
func startWorkers(t *testing.T, ctx context.Context, addr string, n, slots int, exec func(name string) savanna.Executor) func() {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		w := &Worker{Name: name, Addr: addr, Executor: exec(name), Slots: slots,
			Heartbeat: 20 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return wg.Wait
}

// execFn adapts a function to savanna.ContextExecutor.
type execFn func(ctx context.Context, run cheetah.Run) error

func (f execFn) Execute(run cheetah.Run) error { return f(context.Background(), run) }
func (f execFn) ExecuteContext(ctx context.Context, run cheetah.Run) error {
	return f(ctx, run)
}

func TestRemoteCampaignBasic(t *testing.T) {
	ln := listen(t)
	var executed int64
	e := &Engine{Listener: ln, BatchSize: 8, LeaseTTL: time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := startWorkers(t, ctx, ln.Addr().String(), 2, 2, func(string) savanna.Executor {
		return execFn(func(ctx context.Context, run cheetah.Run) error {
			atomic.AddInt64(&executed, 1)
			return nil
		})
	})
	runs := testRuns(40)
	results, report, err := e.RunCampaign(context.Background(), "basic", runs)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wait()
	if !report.Complete() || report.Succeeded != 40 {
		t.Fatalf("report = %+v", report)
	}
	if got := atomic.LoadInt64(&executed); got != 40 {
		t.Fatalf("executed %d runs, want 40", got)
	}
	for i, r := range results {
		if r.Run.ID != runs[i].ID {
			t.Fatalf("result %d out of order: %s", i, r.Run.ID)
		}
		if r.Status != "succeeded" || r.Err != "" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// TestRemoteRetryAndQuarantine pins the coordinator-side resilience stack:
// transient failures retry (on any worker), poisoned sweep points
// quarantine after the threshold, and the journal names the workers.
func TestRemoteRetryAndQuarantine(t *testing.T) {
	ln := listen(t)
	jpath := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: time.Second,
		Resilience: &resilience.Config{
			Retry:           resilience.RetryPolicy{MaxAttempts: 3},
			QuarantineAfter: 2,
			Journal:         j,
		}}
	var flakyTries int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := startWorkers(t, ctx, ln.Addr().String(), 2, 1, func(string) savanna.Executor {
		return execFn(func(ctx context.Context, run cheetah.Run) error {
			switch run.Params["kind"] {
			case "flaky":
				if atomic.AddInt64(&flakyTries, 1) < 2 {
					return fmt.Errorf("transient hiccup")
				}
				return nil
			case "poison":
				return resilience.MarkPermanent(fmt.Errorf("bad parameters"))
			}
			return nil
		})
	})
	runs := []cheetah.Run{
		{ID: "ok-1", Params: map[string]string{"kind": "ok"}},
		{ID: "flaky-1", Params: map[string]string{"kind": "flaky"}},
		{ID: "poison-1", Params: map[string]string{"kind": "poison"}},
		{ID: "poison-2", Params: map[string]string{"kind": "poison"}},
		{ID: "poison-3", Params: map[string]string{"kind": "poison"}},
		{ID: "ok-2", Params: map[string]string{"kind": "ok"}},
	}
	results, report, err := e.RunCampaign(context.Background(), "resil", runs)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wait()
	byID := map[string]savanna.RunResult{}
	for _, r := range results {
		byID[r.Run.ID] = r
	}
	if r := byID["flaky-1"]; r.Status != "succeeded" || r.Attempts != 2 {
		t.Fatalf("flaky-1 = %+v", r)
	}
	// Permanent failures never retry; the shared sweep point quarantines
	// after two failures, so the third poison run fails without dispatch.
	failed, quarantined := 0, 0
	for _, id := range []string{"poison-1", "poison-2", "poison-3"} {
		r := byID[id]
		if r.Status != "failed" {
			t.Fatalf("%s = %+v", id, r)
		}
		if r.Quarantined {
			quarantined++
		} else {
			failed++
		}
	}
	if failed != 2 || quarantined != 1 {
		t.Fatalf("poison split = %d failed, %d quarantined", failed, quarantined)
	}
	if report.Retries != 1 || report.Quarantined != 1 {
		t.Fatalf("report = %+v", report)
	}
	j.Sync()
	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var named int
	for _, r := range recs {
		if r.Event == resilience.AttemptDispatched && r.Worker == "" {
			t.Fatalf("dispatch record without worker: %+v", r)
		}
		if r.Worker != "" {
			named++
		}
	}
	if named == 0 {
		t.Fatal("no journal record names a worker")
	}
}

// TestRemoteRefusesMemoWithoutCache: a worker memo that could cache nothing,
// or whose key names no component, is a configuration error said before the
// worker dials — not a session served un-memoized, nor one that hands one
// command's results to another. Serve says it at once instead of redialing.
func TestRemoteRefusesMemoWithoutCache(t *testing.T) {
	cache := testActionCache(t, t.TempDir())
	for _, memo := range []*savanna.Memo{{ComponentDigest: "sha256:model-v1"}, {Cache: cache}} {
		var dials atomic.Int64
		w := &Worker{Name: "w0", Memo: memo, ReconnectWait: time.Minute,
			Executor: execFn(func(context.Context, cheetah.Run) error { return nil }),
			Dial: func() (net.Conn, error) {
				dials.Add(1)
				return nil, errors.New("no coordinator here")
			}}
		if err := w.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "memo needs") {
			t.Errorf("Run with memo %+v: err %v; want it refused", memo, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := w.Serve(ctx); err == nil || !strings.Contains(err.Error(), "memo needs") {
			t.Errorf("Serve with memo %+v: err %v; want it refused", memo, err)
		}
		cancel()
		if n := dials.Load(); n != 0 {
			t.Errorf("memo %+v: the worker dialed %d times under a refused configuration", memo, n)
		}
	}
}

// testActionCache opens an action cache over a store under dir.
func testActionCache(t *testing.T, dir string) *cas.ActionCache {
	t.Helper()
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := cas.OpenActionCache(filepath.Join(dir, "cas", "actions.json"), store)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// TestRemoteMemoShortCircuit pins the CAS artifact plane, which memoizes
// where runs execute: a cold pass executes every run on a worker and records
// it in the worker's memo; a second campaign whose worker has that memo warm
// executes nothing, and every result comes back cached.
func TestRemoteMemoShortCircuit(t *testing.T) {
	dir := t.TempDir()
	cache := testActionCache(t, dir)
	outDir := filepath.Join(dir, "out")
	os.MkdirAll(outDir, 0o755)
	runs := testRuns(30)
	pass := func(name string) ([]savanna.RunResult, resilience.CompletenessReport, int64) {
		ln := listen(t)
		var executed int64
		w := &Worker{
			Name: name, Addr: ln.Addr().String(), Slots: 2, Heartbeat: 20 * time.Millisecond,
			Executor: execFn(func(ctx context.Context, run cheetah.Run) error {
				atomic.AddInt64(&executed, 1)
				return appendlog.WriteFileAtomic(filepath.Join(outDir, run.ID+".txt"),
					[]byte("result "+run.Params["i"]+"\n"), 0o644)
			}),
			Memo: &savanna.Memo{Cache: cache, ComponentDigest: "sha256:model-v1",
				Collect: func(run cheetah.Run) (map[string]string, error) {
					return map[string]string{"result": filepath.Join(outDir, run.ID+".txt")}, nil
				}},
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); w.Run(ctx) }()
		e := &Engine{Listener: ln, LeaseTTL: time.Second}
		results, report, err := e.RunCampaign(context.Background(), "memo", runs)
		cancel()
		<-done
		if err != nil {
			t.Fatal(err)
		}
		return results, report, atomic.LoadInt64(&executed)
	}

	results, report, executed := pass("w0")
	if !report.Complete() || executed != 30 || report.Cached != 0 {
		t.Fatalf("cold pass: report %+v, executed %d", report, executed)
	}
	for _, r := range results {
		if r.Cached || r.Status != provenance.StatusSucceeded {
			t.Fatalf("cold pass result %+v", r)
		}
	}

	results, report, executed = pass("w1")
	if !report.Complete() || executed != 0 || report.Cached != 30 {
		t.Fatalf("warm pass: report %+v, executed %d; want 0 executions, 30 cached", report, executed)
	}
	for _, r := range results {
		if !r.Cached || r.Status != provenance.StatusSucceeded {
			t.Fatalf("warm pass result %+v", r)
		}
	}
}

// TestRemoteWorkerWaitAbort pins the starvation guard: with work pending
// and no worker ever joining, the campaign aborts instead of hanging.
func TestRemoteWorkerWaitAbort(t *testing.T) {
	e := &Engine{Listener: listen(t), LeaseTTL: 40 * time.Millisecond,
		WorkerWait: 80 * time.Millisecond}
	results, report, err := e.RunCampaign(context.Background(), "starved", testRuns(5))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Aborted || report.Skipped != 5 {
		t.Fatalf("report = %+v", report)
	}
	for _, r := range results {
		if r.Status != "skipped" {
			t.Fatalf("result = %+v", r)
		}
	}
}

// TestRemoteSteal pins the rebalancing path: a worker that joins late
// steals queued runs from the saturated first worker instead of idling
// until the end of the campaign.
func TestRemoteSteal(t *testing.T) {
	ln := listen(t)
	metrics := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 64, LeaseTTL: time.Second, Metrics: metrics}
	release := make(chan struct{})
	var once sync.Once
	counts := map[string]*int64{"w0": new(int64), "w1": new(int64)}
	exec := func(name string) savanna.Executor {
		return execFn(func(ctx context.Context, run cheetah.Run) error {
			// The first worker blocks on its first run until the second
			// worker has joined, guaranteeing a saturated victim.
			if name == "w0" {
				<-release
			}
			atomic.AddInt64(counts[name], 1)
			time.Sleep(200 * time.Microsecond)
			return nil
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w0 := &Worker{Name: "w0", Addr: ln.Addr().String(), Executor: exec("w0"), Slots: 1,
		Heartbeat: 10 * time.Millisecond}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); w0.Run(ctx) }()

	done := make(chan struct{})
	var report resilience.CompletenessReport
	var runErr error
	go func() {
		defer close(done)
		_, report, runErr = e.RunCampaign(context.Background(), "steal", testRuns(64))
	}()
	// Give w0 time to take the whole batch, then add w1 and unblock.
	time.Sleep(50 * time.Millisecond)
	w1 := &Worker{Name: "w1", Addr: ln.Addr().String(), Executor: exec("w1"), Slots: 1,
		Heartbeat: 10 * time.Millisecond}
	wg.Add(1)
	go func() { defer wg.Done(); w1.Run(ctx) }()
	time.Sleep(30 * time.Millisecond)
	once.Do(func() { close(release) })
	<-done
	cancel()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !report.Complete() {
		t.Fatalf("report = %+v", report)
	}
	if got := metrics.Counter("remote.steals_total").Value(); got < 1 {
		t.Fatalf("steals = %d, want ≥1", got)
	}
	if got := atomic.LoadInt64(counts["w1"]); got == 0 {
		t.Fatal("late worker executed nothing — steal did not rebalance")
	}
}

// TestStolenSlotNotHeldIsIgnored: a scripted worker holding slots 0 and 1
// answers with an unasked-for stolen reply naming slot 1, which it holds, and
// slots 2 (queued, not yet anyone's), 7 (past the run list) and -1, which it
// does not. Only slot 1 is taken back; the rest are ignored, so every run is
// dispatched once but slot 1, twice, and succeeds once.
func TestStolenSlotNotHeldIsIgnored(t *testing.T) {
	ln := listen(t)
	metrics := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 2, LeaseTTL: 5 * time.Second, Metrics: metrics}
	type campaign struct {
		results []savanna.RunResult
		report  resilience.CompletenessReport
	}
	done := make(chan campaign, 1)
	go func() {
		results, report, _ := e.RunCampaign(context.Background(), "steal-slots", testRuns(4))
		done <- campaign{results, report}
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := newConn(nc, 5*time.Second, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.post(OpHello, "w0", 0, &Hello{Slots: 1})
	var assigned []int
	finish := func(a Assignment, skip int) {
		for i, run := range a.Runs {
			assigned = append(assigned, a.Slots[i])
			if a.Slots[i] != skip {
				c.post(OpResult, "w0", 1, &Outcome{RunID: run.ID, OK: true, Slot: a.Slots[i]})
			}
		}
	}
	for first := true; ; {
		m, err := c.recv(5 * time.Second)
		if err != nil {
			t.Fatalf("scripted worker: %v", err)
		}
		if m.Op == OpDrain {
			break
		}
		if m.Op != OpAssign {
			continue
		}
		a, err := decodeBody[Assignment](m)
		if err != nil {
			t.Fatal(err)
		}
		if first {
			if !slices.Equal(a.Slots, []int{0, 1}) {
				t.Fatalf("first assign slots = %v, want [0 1]", a.Slots)
			}
			c.post(OpStolen, "w0", 1, &Stolen{Slots: []int{1, 2, 7, -1}})
			finish(a, 1)
			first = false
			continue
		}
		finish(a, -1)
	}
	c.close()
	got := <-done
	if !got.report.Complete() || got.report.Succeeded != 4 {
		t.Fatalf("report = %+v", got.report)
	}
	for i, r := range got.results {
		if r.Run.ID != testRuns(4)[i].ID || r.Status != provenance.StatusSucceeded {
			t.Errorf("result %d = %+v", i, r)
		}
	}
	if !slices.Equal(assigned, []int{0, 1, 2, 3, 1}) {
		t.Errorf("slots assigned in order %v, want [0 1 2 3 1]: only slot 1 taken back, at the back of the queue", assigned)
	}
	if n := metrics.Counter("remote.stolen_runs_total").Value(); n != 1 {
		t.Errorf("stolen_runs_total = %d, want 1", n)
	}
}

// TestBareCampaignMakesNoPointKeyOrIndex: a journal-less, quarantine-less
// 10,000-run loopback campaign never makes a point key and never builds the
// id index — every outcome found its run by its slot — and its results are
// the ones its runs' states wrote in place, in run order.
func TestBareCampaignMakesNoPointKeyOrIndex(t *testing.T) {
	ln := listen(t)
	var co *coordinator
	e := &Engine{Listener: ln, BatchSize: 32, LeaseTTL: 5 * time.Second, finished: func(c *coordinator) { co = c }}
	ctx, cancel := context.WithCancel(context.Background())
	stop := startWorkers(t, ctx, ln.Addr().String(), 2, 1, func(string) savanna.Executor {
		return execFn(func(context.Context, cheetah.Run) error { return nil })
	})
	runs := testRuns(10_000)
	results, report, err := e.RunCampaign(context.Background(), "bare", runs)
	cancel()
	stop()
	if err != nil || !report.Complete() || report.Succeeded != len(runs) {
		t.Fatalf("report = %+v, err %v", report, err)
	}
	if co.index != nil {
		t.Errorf("the id index was built (%d entries) though every slot matched", len(co.index))
	}
	for i := range runs {
		st := &co.state[i]
		if point := reflect.ValueOf(st).Elem().FieldByName("point").String(); point != "" {
			t.Fatalf("run %d: point key %q made with neither journal nor quarantine", i, point)
		}
		if st.Result != &results[i] || results[i].Run.ID != runs[i].ID || results[i].Status != provenance.StatusSucceeded {
			t.Fatalf("run %d: result %+v, not its state's in place", i, results[i])
		}
	}
}

// TestRemoteCrashResume pins coordinator crash-resume: a cancelled campaign
// leaves a journal from which the remaining runs are recovered, and the
// resumed campaign finishes exactly the runs the first one did not.
func TestRemoteCrashResume(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "attempts.jsonl")
	runs := testRuns(60)
	ids := make([]string, len(runs))
	for i, r := range runs {
		ids[i] = r.ID
	}

	// Phase 1: cancel mid-campaign.
	j1, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	ln := listen(t)
	ctx1, cancel1 := context.WithCancel(context.Background())
	var phase1 int64
	wait1 := startWorkers(t, ctx1, ln.Addr().String(), 2, 1, func(string) savanna.Executor {
		return execFn(func(ctx context.Context, run cheetah.Run) error {
			if atomic.AddInt64(&phase1, 1) == 20 {
				cancel1() // the "crash": coordinator context dies mid-flight
			}
			time.Sleep(time.Millisecond)
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		})
	})
	e1 := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: 500 * time.Millisecond,
		Resilience: &resilience.Config{Journal: j1}}
	_, report1, err := e1.RunCampaign(ctx1, "resume", runs)
	if err != nil {
		t.Fatal(err)
	}
	wait1()
	j1.Close()
	if report1.Complete() {
		t.Fatal("phase 1 unexpectedly completed — cancel landed too late to test resume")
	}

	// Recovery: replay the journal, compute the remaining runs.
	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	state := resilience.Replay(recs)
	remaining := state.Remaining(ids)
	if len(remaining) == 0 || len(remaining) == len(ids) {
		t.Fatalf("remaining = %d of %d", len(remaining), len(ids))
	}

	// Phase 2: resume exactly the owed runs.
	j2, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	byID := map[string]cheetah.Run{}
	for _, r := range runs {
		byID[r.ID] = r
	}
	var resumeRuns []cheetah.Run
	for _, id := range remaining {
		resumeRuns = append(resumeRuns, byID[id])
	}
	ln2 := listen(t)
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	wait2 := startWorkers(t, ctx2, ln2.Addr().String(), 2, 1, func(string) savanna.Executor {
		return execFn(func(ctx context.Context, run cheetah.Run) error { return nil })
	})
	e2 := &Engine{Listener: ln2, BatchSize: 4, LeaseTTL: 500 * time.Millisecond,
		Resilience: &resilience.Config{Journal: j2}}
	_, report2, err := e2.RunCampaign(context.Background(), "resume", resumeRuns)
	if err != nil {
		t.Fatal(err)
	}
	cancel2()
	wait2()
	if !report2.Complete() || report2.Total != len(resumeRuns) {
		t.Fatalf("phase 2 report = %+v", report2)
	}

	// Exactly-once across the crash: every run has exactly one terminal
	// success record over both phases.
	j2.Sync()
	recs, err = resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	successes := map[string]int{}
	for _, r := range recs {
		if r.Event == resilience.AttemptSuccess || r.Event == resilience.AttemptCached {
			successes[r.Run]++
		}
	}
	for _, id := range ids {
		if state.Done[id] && successes[id] != 1 {
			t.Fatalf("run %s: %d success records, want 1", id, successes[id])
		}
	}
	for _, id := range remaining {
		if successes[id] != 1 {
			t.Fatalf("resumed run %s: %d success records, want 1", id, successes[id])
		}
	}
}

// eventTypes collects the set of event types seen in a log.
func eventTypes(l *eventlog.Log) map[string]int {
	types := map[string]int{}
	for _, ev := range l.Snapshot() {
		types[ev.Type]++
	}
	return types
}

// TestRemoteEventsAndSpans pins the observability wiring: a remote campaign
// produces the same event vocabulary the monitor folds, plus the
// worker-lifecycle events, and per-run spans close.
func TestRemoteEventsAndSpans(t *testing.T) {
	ln := listen(t)
	log := eventlog.NewLog()
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: time.Second,
		Events: log, Metrics: metrics, Tracer: tracer}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := startWorkers(t, ctx, ln.Addr().String(), 2, 1, func(string) savanna.Executor {
		return execFn(func(ctx context.Context, run cheetah.Run) error { return nil })
	})
	_, report, err := e.RunCampaign(context.Background(), "events", testRuns(12))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	wait()
	if !report.Complete() {
		t.Fatalf("report = %+v", report)
	}
	types := eventTypes(log)
	for _, want := range []string{eventlog.CampaignStart, eventlog.CampaignDone,
		eventlog.WorkerJoin, eventlog.RunDispatched, eventlog.RunSucceeded} {
		if types[want] == 0 {
			t.Fatalf("no %s event; saw %v", want, types)
		}
	}
	if types[eventlog.RunDispatched] < 12 || types[eventlog.RunSucceeded] != 12 {
		t.Fatalf("event counts = %v", types)
	}
	if got := metrics.Counter("remote.runs_completed_total").Value(); got != 12 {
		t.Fatalf("completed counter = %d", got)
	}
	if got := metrics.Gauge("remote.workers_live").Value(); got != 0 {
		t.Fatalf("live gauge after drain = %v", got)
	}
}

// TestRemoteConcurrentJoinGrantFirst pins the attach order: a joining worker
// is registered before its lease-grant is written, and until that send
// returns no top-up — another worker's join, a result arriving — may put an
// assign on its connection, or the worker quits its handshake with
// "expected lease-grant". Two goroutines join workers over and over against
// a campaign that a steady worker keeps topping up. The grant carries the
// campaign name and is marshalled before it takes the connection's write
// lock, so a campaign with a long name (about 160 KiB) holds the window open
// long enough for a top-up to land in it on most joins rather than one in
// tens of thousands. The campaign is small and is kept going by failure
// instead of by size: the steady worker's runs fail at once and are retried
// without end, each result a top-up, and only the joiners' runs — one per
// join — ever succeed.
func TestRemoteConcurrentJoinGrantFirst(t *testing.T) {
	const joinsEach = 40
	campaign := strings.Repeat("joins-", 27_000)
	ln := listen(t)
	addr := ln.Addr().String()
	e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: 5 * time.Second,
		Resilience: &resilience.Config{Retry: resilience.RetryPolicy{MaxAttempts: 1 << 30}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	campaignDone := make(chan struct{})
	go func() {
		defer close(campaignDone)
		e.RunCampaign(ctx, campaign, testRuns(2*joinsEach+40))
	}()
	// The joiners start once the campaign is dispatching.
	dispatching := make(chan struct{})
	var first sync.Once
	steadyDone := make(chan struct{})
	go func() {
		defer close(steadyDone)
		steady := &Worker{Name: "steady", Addr: addr, Slots: 1, Heartbeat: time.Hour,
			Executor: execFn(func(context.Context, cheetah.Run) error {
				first.Do(func() { close(dispatching) })
				return errors.New("not here")
			})}
		steady.Run(ctx)
	}()
	select {
	case <-dispatching:
	case <-steadyDone:
		t.Fatal("the steady worker left before its first run")
	}

	var granted atomic.Int64
	var joiners sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		joiners.Add(1)
		go func() {
			defer joiners.Done()
			for i := 0; i < joinsEach; i++ {
				// One session: attach, take the first run, leave.
				jctx, leave := context.WithTimeout(ctx, 50*time.Millisecond)
				w := &Worker{Name: fmt.Sprintf("joiner%d-%d", g, i), Addr: addr, Slots: 1,
					Heartbeat: time.Hour,
					Executor:  execFn(func(context.Context, cheetah.Run) error { leave(); return nil })}
				err := w.Run(jctx)
				leave()
				if w.sawGrant.Load() {
					granted.Add(1)
				} else {
					t.Errorf("join %d of joiner %d never saw its grant: %v", i, g, err)
				}
			}
		}()
	}
	joiners.Wait()
	select {
	case <-campaignDone:
		t.Fatalf("the campaign ended before the joins did (%d granted)", granted.Load())
	default:
	}
	cancel()
	<-campaignDone
	<-steadyDone
	if got := granted.Load(); got != 2*joinsEach {
		t.Fatalf("%d of %d joins were granted a lease", got, 2*joinsEach)
	}
}

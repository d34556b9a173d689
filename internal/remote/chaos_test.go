package remote

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// chaosRuns sizes the worker-kill campaign; CI's chaos job raises it to
// the acceptance scale (10k) via REMOTE_CHAOS_RUNS.
func chaosRuns(t *testing.T) int {
	if s := os.Getenv("REMOTE_CHAOS_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 8 {
			t.Fatalf("bad REMOTE_CHAOS_RUNS=%q", s)
		}
		return n
	}
	return 600
}

// chaosPayload is the deterministic run body both engines share: a short
// I/O-shaped stall, then an output file derived only from the sweep point —
// so a re-executed run writes identical bytes and the remote campaign's
// output tree can be compared byte-for-byte against the local baseline.
func chaosPayload(outDir string, executions *int64, hook func(n int64)) execFn {
	return func(ctx context.Context, run cheetah.Run) error {
		n := atomic.AddInt64(executions, 1)
		if hook != nil {
			hook(n)
		}
		i, _ := strconv.Atoi(run.Params["i"])
		time.Sleep(time.Duration(50+i%7*20) * time.Microsecond)
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		content := fmt.Sprintf("point i=%d model=%s value=%d\n", i, run.Params["model"], i*i)
		return appendlog.WriteFileAtomic(filepath.Join(outDir, run.ID+".txt"), []byte(content), 0o644)
	}
}

// TestRemoteChaosWorkerKill is the acceptance chaos test: kill 2 of 4
// workers mid-campaign (one of them replaced by a rejoining worker) and
// require zero lost runs, no double-counted completions, and an output
// tree byte-identical to a LocalEngine baseline over the same campaign.
func TestRemoteChaosWorkerKill(t *testing.T) {
	total := chaosRuns(t)
	runs := testRuns(total)
	dir := t.TempDir()

	// Local baseline: the ground truth output tree.
	localOut := filepath.Join(dir, "local")
	os.MkdirAll(localOut, 0o755)
	var localExecs int64
	local := &savanna.LocalEngine{Workers: 4,
		Executor: chaosPayload(localOut, &localExecs, nil)}
	if _, _, err := local.RunCampaign(context.Background(), "chaos", runs); err != nil {
		t.Fatal(err)
	}

	// Remote campaign with seeded kills: worker w3 dies at 25% progress,
	// w2 at 50%; a replacement for w3 rejoins shortly after it dies.
	remoteOut := filepath.Join(dir, "remote")
	os.MkdirAll(remoteOut, 0o755)
	jpath := filepath.Join(dir, "attempts.jsonl")
	j, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	events := eventlog.NewLog()
	ln := listen(t)
	e := &Engine{Listener: ln, BatchSize: 16, LeaseTTL: 400 * time.Millisecond,
		Metrics: metrics, Tracer: tracer, Events: events,
		Resilience: &resilience.Config{
			Retry:   resilience.RetryPolicy{MaxAttempts: 4},
			Journal: j,
		}}

	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	var execs int64
	var wg sync.WaitGroup
	var rejoinOnce sync.Once
	kills := map[string]*struct {
		at     int64
		cancel context.CancelFunc
		once   sync.Once
	}{
		"w3": {at: int64(total / 4)},
		"w2": {at: int64(total / 2)},
	}
	startWorker := func(name string) {
		wctx, wcancel := context.WithCancel(ctx)
		t.Cleanup(wcancel)
		if k := kills[name]; k != nil {
			k.cancel = wcancel
		}
		hook := func(n int64) {
			for kn, k := range kills {
				if kn == name && n >= k.at {
					k.once.Do(func() {
						k.cancel() // the seeded kill: this worker dies mid-run
						if kn == "w3" {
							// One dead worker is replaced — the rejoin path.
							rejoinOnce.Do(func() {
								go func() {
									time.Sleep(30 * time.Millisecond)
									wg.Add(1)
									go func() {
										defer wg.Done()
										w := &Worker{Name: "w3", Addr: ln.Addr().String(),
											Executor: chaosPayload(remoteOut, &execs, nil),
											Slots:    2, Heartbeat: 50 * time.Millisecond,
											Tracer:  telemetry.NewTracer(),
											Metrics: telemetry.NewRegistry(),
											Events:  eventlog.NewLog()}
										w.Run(ctx)
									}()
								}()
							})
						}
					})
				}
			}
		}
		w := &Worker{Name: name, Addr: ln.Addr().String(),
			Executor: chaosPayload(remoteOut, &execs, hook),
			Slots:    2, Heartbeat: 50 * time.Millisecond,
			Tracer:  telemetry.NewTracer(),
			Metrics: telemetry.NewRegistry(),
			Events:  eventlog.NewLog()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	for _, name := range []string{"w0", "w1", "w2", "w3"} {
		startWorker(name)
	}

	results, report, err := e.RunCampaign(context.Background(), "chaos", runs)
	if err != nil {
		t.Fatal(err)
	}
	cancelAll()
	wg.Wait()

	// Zero lost runs: every run reaches a successful terminal state.
	if !report.Complete() {
		t.Fatalf("report = %+v", report)
	}
	if report.Succeeded+report.Cached != total {
		t.Fatalf("completions = %d of %d", report.Succeeded+report.Cached, total)
	}
	for i, r := range results {
		if r.Run.ID != runs[i].ID || r.Status != "succeeded" {
			t.Fatalf("result %d = %+v", i, r)
		}
	}

	// The kills really happened: both leases expired mid-campaign.
	j.Sync()
	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	expired := 0
	successes := map[string]int{}
	for _, r := range recs {
		switch r.Event {
		case resilience.LeaseExpired:
			expired++
		case resilience.AttemptSuccess, resilience.AttemptCached:
			successes[r.Run]++
		}
	}
	if expired < 2 {
		t.Fatalf("lease expiries = %d, want ≥2 (the seeded kills)", expired)
	}

	// No double-counted completions: exactly one terminal success per run,
	// even where a lease expiry re-dispatched a run that later finished
	// twice (the duplicate is dropped, visible only as a metric).
	for _, r := range runs {
		if successes[r.ID] != 1 {
			t.Fatalf("run %s: %d success records, want exactly 1", r.ID, successes[r.ID])
		}
	}

	// Byte-identical to the local baseline.
	for _, r := range runs {
		want, err := os.ReadFile(filepath.Join(localOut, r.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(remoteOut, r.ID+".txt"))
		if err != nil {
			t.Fatalf("remote output missing for %s: %v", r.ID, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %s: remote output %q != local %q", r.ID, got, want)
		}
	}

	if lost := metrics.Counter("remote.runs_lost_total").Value(); lost > 0 {
		t.Logf("chaos recovered %d lost runs across %d lease expiries", lost, expired)
	}

	// Telemetry survived the chaos: the merged trace holds worker run spans
	// from surviving workers (clean drains always flush), every parent
	// reference resolves, and worker-attributed spans chain up to the
	// coordinator's dispatch spans. Batches lost with killed connections are
	// allowed — they are counted, never re-ordered into corruption.
	spans := tracer.Snapshot()
	byID := map[int64]telemetry.SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	fleet := map[string]bool{}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("merged span %d (%s) has orphaned parent %d", s.ID, s.Name, s.Parent)
			}
		}
		if s.Name == "remote.worker.run" && s.Parent != 0 {
			if p := byID[s.Parent]; p.Name != "remote.run" || p.Attr("run") != s.Attr("run") {
				t.Fatalf("worker run span %d (run %s) parents under %q (run %s), want its run's remote.run",
					s.ID, s.Attr("run"), p.Name, p.Attr("run"))
			}
			fleet[s.Attr("worker")] = true
		}
	}
	if len(fleet) < 2 {
		t.Fatalf("merged worker run spans from %d worker(s) (%v), want ≥2", len(fleet), fleet)
	}
	if dropped := metrics.Counter("remote.telemetry_dropped_total").Value(); dropped > 0 {
		t.Logf("chaos dropped %d telemetry record(s) (counted, zero lost runs)", dropped)
	}
}

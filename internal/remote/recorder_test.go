package remote

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
)

// successes lists the runs a batch's journal records call finished.
func successes(journal []resilience.AttemptRecord) []string {
	var ids []string
	for _, r := range journal {
		if r.Event == resilience.AttemptSuccess {
			ids = append(ids, r.Run)
		}
	}
	return ids
}

// ackedOn returns the run ids acknowledged in the bytes tee has read so far,
// in wire order.
func ackedOn(t *testing.T, tee *teeConn) []string {
	t.Helper()
	tee.mu.Lock()
	ms, _ := readAll(tee.got.Bytes()) // stops at the message still arriving
	tee.mu.Unlock()
	var ids []string
	for _, m := range ms {
		if m.Op == OpResultAck {
			a, err := decodeBody[ResultAck](m)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, a.RunIDs...)
		}
	}
	return ids
}

// TestAckFollowsJournalWrite: the recorder is held just before each journal
// write that carries a result. While it is held the worker sees no ack for
// those results — though the coordinator has long decided them — and once it
// is let go the worker sees acks for exactly that batch's runs before the
// next batch is written.
func TestAckFollowsJournalWrite(t *testing.T) {
	const n = 8
	journal, err := resilience.OpenJournal(filepath.Join(t.TempDir(), "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	held := make(chan []string) // a batch's finished runs, while the recorder waits
	release := make(chan struct{})
	ln := listen(t)
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: n, LeaseTTL: time.Second, Metrics: reg,
		Resilience: &resilience.Config{Journal: journal},
		probe: func(stage savanna.RecorderStage, journal []resilience.AttemptRecord) bool {
			if ids := successes(journal); stage == savanna.BeforeJournal && len(ids) > 0 {
				held <- ids
				<-release
			}
			return false
		}}
	var tee *teeConn
	w := &Worker{Name: "w0", Slots: 1, Heartbeat: time.Hour,
		Dial: func() (net.Conn, error) {
			nc, err := net.Dial("tcp", ln.Addr().String())
			tee = &teeConn{Conn: nc}
			return tee, err
		},
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(context.Background()) }()
	type outcome struct {
		report resilience.CompletenessReport
		err    error
	}
	campaignDone := make(chan outcome, 1)
	go func() {
		_, report, err := e.RunCampaign(context.Background(), "ack-order", testRuns(n))
		campaignDone <- outcome{report, err}
	}()

	var want []string // acks owed so far, in order
	for first := true; len(want) < n; first = false {
		var batch []string
		select {
		case batch = <-held:
		case <-time.After(10 * time.Second):
			t.Fatalf("no journal write carrying a result after %d of %d", len(want), n)
		}
		if first {
			// Let the coordinator decide every result while the recorder is held.
			waitFor(t, 10*time.Second, func() bool { return reg.Counter("remote.runs_completed_total").Value() == n })
		}
		// Everything released so far is acked; nothing of the held batch is.
		waitFor(t, 10*time.Second, func() bool { return len(ackedOn(t, tee)) >= len(want) })
		if got := ackedOn(t, tee); !reflect.DeepEqual(got, want) {
			t.Fatalf("with %v held before its journal write the worker has acks for %v, want %v", batch, got, want)
		}
		want = append(want, batch...)
		release <- struct{}{}
	}
	out := <-campaignDone
	if out.err != nil || out.report.Succeeded != n {
		t.Fatalf("report %+v, err %v", out.report, out.err)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
	if got := ackedOn(t, tee); !reflect.DeepEqual(got, want) {
		t.Errorf("acks on the wire %v, want the batches' runs in order %v", got, want)
	}
	if w.SpoolDepth() != 0 {
		t.Errorf("drained worker still spools %d outcomes", w.SpoolDepth())
	}
}

// TestCrashBetweenSinks kills a coordinator — as far as anything it writes or
// sends is concerned — at each point between the recorder's sinks, part-way
// through a 200-run campaign: before a batch's journal write, between the
// journal and the status log, between the status log and the acks. The
// recorder is abandoned there, the worker's link is cut, and a Resume
// successor takes the campaign over. Whatever the point: no ack ever left for
// a run the journal does not hold; the successor owes exactly the runs the
// journal does not prove done; it brings status.log back in line with the
// journal before dispatching; and the final journal holds exactly one
// terminal record per run.
func TestCrashBetweenSinks(t *testing.T) {
	const n = 200
	for _, at := range []savanna.RecorderStage{savanna.BeforeJournal, savanna.BeforeStatus, savanna.BeforeDone} {
		t.Run(fmt.Sprint("stage", int(at)), func(t *testing.T) {
			dir, m := statusCampaign(t, n)
			jpath := filepath.Join(dir, "attempts.jsonl")
			crashAfter := 40 + rand.New(rand.NewSource(int64(at))).Intn(60) // finished runs before the fatal batch

			// The worker outlives both coordinators; its links are the test's to cut.
			var mu sync.Mutex
			var links []*teeConn
			var addr atomic.Value
			ln1 := listen(t)
			addr.Store(ln1.Addr().String())
			w := &Worker{Name: "w0", Slots: 2, Heartbeat: 20 * time.Millisecond,
				ReconnectWait: 20 * time.Second,
				Dial: func() (net.Conn, error) {
					nc, err := net.Dial("tcp", addr.Load().(string))
					if err != nil {
						return nil, err
					}
					tee := &teeConn{Conn: nc}
					mu.Lock()
					links = append(links, tee)
					mu.Unlock()
					return tee, nil
				},
				// Slow enough for the recorder to keep up even when the race
				// detector stalls it for milliseconds: small batches, so the fatal
				// one lands mid-campaign and cannot swallow the rest of it.
				Executor: execFn(func(context.Context, cheetah.Run) error { time.Sleep(500 * time.Microsecond); return nil })}
			wctx, stopWorker := context.WithCancel(context.Background())
			defer stopWorker()
			served := make(chan error, 1)
			go func() { served <- w.Serve(wctx) }()

			ctx1, kill := context.WithCancel(context.Background())
			defer kill()
			var finished int
			var fatal []string // the finished runs of the batch the crash hit
			e1 := &Engine{Listener: ln1, BatchSize: 8, LeaseTTL: time.Second, CampaignDir: dir,
				probe: func(stage savanna.RecorderStage, journal []resilience.AttemptRecord) bool {
					ids := successes(journal)
					if stage == savanna.BeforeJournal {
						finished += len(ids)
					}
					if stage != at || finished < crashAfter || len(ids) == 0 {
						return false
					}
					fatal = ids
					ln1.Close()
					addr.Store("127.0.0.1:1") // nobody home until the successor is up
					mu.Lock()
					for _, l := range links {
						l.Conn.Close()
					}
					mu.Unlock()
					kill()
					return true
				}}
			if _, _, _, err := Coordinate(ctx1, CoordinateConfig{Engine: e1, Campaign: m.Campaign.Name, Runs: m.Runs,
				Journal: jpath, Holder: "coord-1", LeaseTTL: time.Second}); err != nil {
				t.Fatal(err)
			}
			if len(fatal) == 0 {
				t.Fatal("the campaign finished before the crash point")
			}

			// What the dead incarnation left behind.
			recs, err := resilience.ReadJournalFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			left := resilience.Replay(recs)
			mu.Lock()
			var acked []string
			for _, l := range links {
				acked = append(acked, ackedOn(t, l)...)
			}
			mu.Unlock()
			for _, id := range acked {
				if !left.Done[id] {
					t.Errorf("an ack left for %s, which the journal does not hold", id)
				}
			}
			statuses, err := cheetah.RunStatuses(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range fatal {
				inJournal, inStatus, wasAcked := left.Done[id], statuses[id] == cheetah.RunSucceeded, contains(acked, id)
				if inJournal != (at != savanna.BeforeJournal) || inStatus != (at == savanna.BeforeDone) || wasAcked {
					t.Errorf("%s, in the batch the crash hit: journal %v, status log %v, acked %v", id, inJournal, inStatus, wasAcked)
				}
			}
			if len(left.Done) == 0 || len(left.Done) >= n {
				t.Fatalf("the journal holds %d of %d runs done: the crash did not land mid-campaign", len(left.Done), n)
			}

			// The successor.
			ln2 := listen(t)
			addr.Store(ln2.Addr().String())
			e2 := &Engine{Listener: ln2, BatchSize: 8, LeaseTTL: time.Second, CampaignDir: dir, WorkerWait: 20 * time.Second,
				probe: func(stage savanna.RecorderStage, _ []resilience.AttemptRecord) bool {
					if stage == savanna.BeforeJournal {
						// Reconciled before anything was dispatched, and never behind since.
						journalBacks(t, dir)
					}
					return false
				}}
			results, report, info, err := Coordinate(context.Background(), CoordinateConfig{Engine: e2, Campaign: m.Campaign.Name,
				Runs: m.Runs, Journal: jpath, Holder: "coord-2", Resume: true, LeaseTTL: time.Second})
			if err != nil || !report.Complete() {
				t.Fatalf("successor: report %+v, err %v", report, err)
			}
			if info.Done != len(left.Done) || len(results) != n-len(left.Done) {
				t.Errorf("successor found %d done and owed %d; the journal held %d of %d", info.Done, len(results), len(left.Done), n)
			}
			for _, r := range results {
				if left.Done[r.Run.ID] || contains(acked, r.Run.ID) {
					t.Errorf("successor re-owed %s (journaled %v, acked %v)", r.Run.ID, left.Done[r.Run.ID], contains(acked, r.Run.ID))
				}
			}
			if err := <-served; err != nil {
				t.Fatalf("worker: %v", err)
			}
			if w.SpoolDepth() != 0 {
				t.Errorf("drained worker still spools %d outcomes", w.SpoolDepth())
			}
			recs, err = resilience.ReadJournalFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			terminal := map[string]int{}
			for _, id := range successes(recs) {
				terminal[id]++
			}
			statuses, err = cheetah.RunStatuses(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range m.Runs {
				if terminal[r.ID] != 1 || statuses[r.ID] != cheetah.RunSucceeded {
					t.Errorf("%s: %d terminal records in the journal, status %q", r.ID, terminal[r.ID], statuses[r.ID])
				}
			}
		})
	}
}

func contains(ids []string, id string) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// recorderStacks counts the recorder goroutines in a snapshot of every stack
// and returns the snapshot.
func recorderStacks() (int, string) {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "savanna.(*Recorder).loop"), stacks
}

// TestNoRecorderGoroutineOutlivesCampaign: however the coordinator's campaign
// ends — every run done, cancelled, aborted by the stop condition, starved of
// workers, fenced out of its journal — the recorder goroutine is gone when
// RunCampaign returns.
func TestNoRecorderGoroutineOutlivesCampaign(t *testing.T) {
	if n, _ := recorderStacks(); n != 0 {
		t.Fatalf("%d recorder goroutine(s) before the test", n)
	}
	// The recorder's Close returns once its loop has closed exited, which
	// its goroutine does on the way out: wait for the goroutine to be gone,
	// bounded, rather than sample the stacks once. A real leak still fails,
	// with its stacks.
	check := func(name string, report resilience.CompletenessReport) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			n, stacks := recorderStacks()
			if n == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("%s (%s): %d recorder goroutine(s) left:\n%s", name, report, n, stacks)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, c := range []struct {
		name     string
		stop     resilience.StopPolicy
		fail     bool
		cancelAt string // cancel the campaign from inside this run
		fenceAt  string // fence the journal from inside this run
		workers  int
	}{
		{name: "normal", workers: 2},
		{name: "cancelled", cancelAt: "7", workers: 2},
		{name: "aborted", stop: resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4}, fail: true, workers: 2},
		{name: "fenced", fenceAt: "7", workers: 2},
		{name: "starved"},
	} {
		dir, m := statusCampaign(t, 40)
		journal, err := resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		ln := listen(t)
		ctx, cancel := context.WithCancel(context.Background())
		wctx, stopWorkers := context.WithCancel(context.Background())
		// The normal campaign counts lease records below: no run of it ends
		// before every worker has attached and started one.
		attached := make(chan struct{})
		var starters atomic.Int32
		wait := startWorkers(t, wctx, ln.Addr().String(), c.workers, 1, func(string) savanna.Executor {
			var once sync.Once
			return execFn(func(_ context.Context, run cheetah.Run) error {
				if c.name == "normal" {
					once.Do(func() {
						if int(starters.Add(1)) == c.workers {
							close(attached)
						}
					})
					<-attached
				}
				switch run.Params["i"] {
				case c.cancelAt:
					cancel()
				case c.fenceAt:
					journal.Fence()
				}
				if c.fail {
					return resilience.MarkPermanent(fmt.Errorf("planted failure"))
				}
				return nil
			})
		})
		e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: time.Second, WorkerWait: 50 * time.Millisecond,
			CampaignDir: dir, Resilience: &resilience.Config{Journal: journal, Stop: c.stop}}
		_, report, err := e.RunCampaign(ctx, m.Campaign.Name, m.Runs)
		if err != nil {
			t.Fatal(err)
		}
		check(c.name, report)
		if quiet := c.name == "normal" || c.name == "fenced"; quiet != report.Complete() {
			t.Errorf("%s: report %s — the scenario did not play out", c.name, report)
		}
		stopWorkers()
		wait()
		cancel()
		journal.Close()
		if c.name != "normal" {
			continue
		}
		// A drained worker's departure is the last thing a handler decides:
		// its record must still reach the journal before the recorder closes.
		recs, err := resilience.ReadJournalFile(journal.Path())
		if err != nil {
			t.Fatal(err)
		}
		leases := map[string]int{}
		for _, r := range recs {
			leases[r.Event]++
		}
		if leases[resilience.LeaseGranted] != c.workers || leases[resilience.LeaseReleased] != c.workers {
			t.Errorf("normal: %d lease(s) granted, %d released, want %d of each",
				leases[resilience.LeaseGranted], leases[resilience.LeaseReleased], c.workers)
		}
	}
}

// TestCoordinateFsyncsOffTheStride: with Coordinate's default stride of 32
// the journal is fsynced once per batch that crosses it, plus once when the
// campaign closes — and the recorder counts them.
func TestCoordinateFsyncsOffTheStride(t *testing.T) {
	const n = 300
	dir, m := statusCampaign(t, n)
	ln := listen(t)
	wctx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	wait := startWorkers(t, wctx, ln.Addr().String(), 1, 1, func(string) savanna.Executor {
		return execFn(func(context.Context, cheetah.Run) error { return nil })
	})
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 8, LeaseTTL: time.Second, CampaignDir: dir, Metrics: reg}
	_, report, _, err := Coordinate(context.Background(), CoordinateConfig{Engine: e, Campaign: m.Campaign.Name, Runs: m.Runs,
		Journal: filepath.Join(dir, "attempts.jsonl"), LeaseTTL: time.Second})
	if err != nil || !report.Complete() {
		t.Fatalf("report %+v, err %v", report, err)
	}
	stopWorkers()
	wait()
	label := []string{"engine", "remote"}
	records := reg.Counter("campaign.recorder_records_total", label...).Value()
	batches := reg.Counter("campaign.recorder_batches_total", label...).Value()
	fsyncs := reg.Counter("campaign.journal_fsyncs_total", label...).Value()
	if records < 2*n || batches < 1 || batches > records {
		t.Errorf("%d journal records in %d batches for %d runs", records, batches, n)
	}
	if fsyncs < 2 || fsyncs > records/32+1 {
		t.Errorf("%d fsyncs for %d records at stride 32, want between 2 and records/32 + 1 (the close)", fsyncs, records)
	}
	t.Logf("%d records, %d batches, %d fsyncs", records, batches, fsyncs)
}

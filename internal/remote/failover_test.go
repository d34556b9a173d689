package remote

import (
	"context"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/stream"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// fakeCoord is a scripted coordinator end: full control over grants,
// epochs, acks, and abrupt disconnects — the deterministic half of the
// failover tests (the chaos test exercises the real thing).
type fakeCoord struct {
	t  *testing.T
	ln net.Listener
}

func newFakeCoord(t *testing.T) *fakeCoord {
	t.Helper()
	return &fakeCoord{t: t, ln: listen(t)}
}

func (f *fakeCoord) addr() string { return f.ln.Addr().String() }

// accept waits for a worker connection and answers its hello with a grant
// at the given epoch, returning the session conn.
func (f *fakeCoord) accept(epoch int64, lease int64) *conn {
	f.t.Helper()
	nc, err := f.ln.Accept()
	if err != nil {
		f.t.Fatal(err)
	}
	c, err := newConn(nc, 5*time.Second, nil, "")
	if err != nil {
		f.t.Fatal(err)
	}
	m, err := c.recv(5 * time.Second)
	if err != nil || m.Op != OpHello {
		f.t.Fatalf("want hello, got %q err=%v", m.Op, err)
	}
	c.epoch.Store(epoch)
	c.post(OpLeaseGrant, m.Worker, lease, &LeaseGrant{
		Campaign: "fake", TTLMillis: 60_000, Epoch: epoch,
	})
	return c
}

// expect receives until a message with the wanted op arrives, skipping
// heartbeat/telemetry noise.
func (f *fakeCoord) expect(c *conn, op string) msg {
	f.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m, err := c.recv(5 * time.Second)
		if err != nil {
			f.t.Fatalf("waiting for %q: %v", op, err)
		}
		switch m.Op {
		case OpHeartbeat, OpTelemetry:
			continue
		}
		if m.Op != op {
			f.t.Fatalf("want %q, got %q", op, m.Op)
		}
		return m
	}
	f.t.Fatalf("timed out waiting for %q", op)
	return msg{}
}

// sendAt sends one message stamped with a specific epoch (restoring the
// session epoch afterwards) — the partitioned-old-coordinator simulator.
func (f *fakeCoord) sendAt(c *conn, epoch int64, op, worker string, lease int64, body wireBody) {
	f.t.Helper()
	prev := c.epoch.Load()
	c.epoch.Store(epoch)
	c.post(op, worker, lease, body) // the epoch is stamped at post time
	c.epoch.Store(prev)
}

// TestWorkerStaleEpochFencing pins the split-brain fence from the worker's
// side: after a handover raises the worker's epoch, a partitioned old
// coordinator's assignments are not executed, its result-acks do not clear
// the spool, and its lease grants are rejected outright.
func TestWorkerStaleEpochFencing(t *testing.T) {
	fc := newFakeCoord(t)
	defer fc.ln.Close()

	executed := make(chan string, 16)
	reg := telemetry.NewRegistry()
	w := &Worker{
		Name: "w0", Addr: fc.addr(), Slots: 1, Heartbeat: time.Hour,
		Metrics: reg,
		Executor: execFn(func(ctx context.Context, run cheetah.Run) error {
			executed <- run.ID
			return nil
		}),
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Current coordinator: epoch 5.
	c := fc.accept(5, 1)
	c.post(OpAssign, "w0", 1, &Assignment{Runs: []cheetah.Run{{ID: "r-live"}}, Slots: []int{0}})
	m := fc.expect(c, OpResult)
	out, err := decodeBody[Outcome](m)
	if err != nil || out.RunID != "r-live" {
		t.Fatalf("outcome = %+v err=%v", out, err)
	}
	if got := <-executed; got != "r-live" {
		t.Fatalf("executed %q", got)
	}
	if d := w.SpoolDepth(); d != 1 {
		t.Fatalf("spool depth before ack = %d, want 1", d)
	}

	// Partitioned predecessor (epoch 3): its assignment must not execute,
	// and its ack must not clear the spooled r-live outcome.
	fc.sendAt(c, 3, OpAssign, "w0", 1, &Assignment{Runs: []cheetah.Run{{ID: "r-stale"}}, Slots: []int{1}})
	fc.sendAt(c, 3, OpResultAck, "w0", 1, &ResultAck{RunIDs: []string{"r-live"}})
	// A current-epoch ack right behind them orders the stream: once it is
	// processed, the stale messages are too.
	c.post(OpResultAck, "w0", 1, &ResultAck{RunIDs: []string{"r-live"}})
	waitFor(t, time.Second, func() bool { return w.SpoolDepth() == 0 })
	select {
	case id := <-executed:
		t.Fatalf("stale-epoch assignment executed: %q", id)
	default:
	}
	if got := reg.Counter("remote_worker.stale_epoch_total").Value(); got != 2 {
		t.Errorf("stale_epoch_total = %d, want 2 (assign + ack)", got)
	}

	// A stale drain must not end the session either.
	fc.sendAt(c, 3, OpDrain, "w0", 1, nil)
	select {
	case err := <-done:
		t.Fatalf("stale drain ended the session: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// A current-epoch drain does.
	c.post(OpDrain, "w0", 1, nil)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	c.close()

	// Re-handshake against a deposed coordinator: the grant itself (epoch
	// 3 < 5) must be rejected.
	go func() { done <- w.Run(context.Background()) }()
	c2 := fc.accept(3, 2)
	if err := <-done; err == nil {
		t.Fatal("stale lease grant accepted")
	}
	c2.close()
	if got := w.maxEpoch.Load(); got != 5 {
		t.Errorf("worker epoch = %d, want 5", got)
	}
}

// TestWorkerSpoolReplayExactlyOnce pins the outcome spool across a
// handover: runs finished while the coordinator is down replay on the next
// handshake, the successor journals exactly one terminal record per run,
// and its acks clear the replayed entries from the spool. The hello
// announces the replay, so the successor assigns the worker nothing until
// the replayed outcomes are in: no run executes twice, at batch 4 too.
func TestWorkerSpoolReplayExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "attempts.jsonl")
	runs := testRuns(6)

	// Incarnation 1 (scripted): assigns two runs, then drops dead before
	// any result lands — the worker finishes them into its spool.
	fc := newFakeCoord(t)
	var addr atomic.Value
	addr.Store(fc.addr())

	// The spool is checked twice. From inside the campaign: the successor's
	// runs (executions 3-6) do not finish until the two replayed outcomes
	// have been acked out of the spool. And after the clean drain: the drain
	// is queued behind every ack on the connection's one writer, so a
	// drained worker's spool is empty (DESIGN §4j).
	var executions int64
	started := make(chan struct{}, 16)
	var w *Worker
	replayedAcked := func() bool {
		for _, out := range w.spoolInit().pending() {
			if out.RunID == runs[0].ID || out.RunID == runs[1].ID {
				return false
			}
		}
		return true
	}
	w = &Worker{
		Name: "w0", Slots: 2, Heartbeat: time.Hour, Tracer: telemetry.NewTracer(),
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) },
		Executor: execFn(func(ctx context.Context, run cheetah.Run) error {
			started <- struct{}{}
			n := atomic.AddInt64(&executions, 1)
			time.Sleep(20 * time.Millisecond) // outlive the coordinator
			if n <= 2 {
				return nil // incarnation 1's runs: these become the replayed outcomes
			}
			for deadline := time.Now().Add(5 * time.Second); !replayedAcked(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("run %s: replayed outcomes still spooled after 5s: %+v", run.ID, w.spoolInit().pending())
					break
				}
			}
			return nil
		}),
		ReconnectWait: 10 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve(ctx) }()

	c := fc.accept(1, 1)
	c.post(OpAssign, "w0", 1, &Assignment{Runs: []cheetah.Run{runs[0], runs[1]}, Slots: []int{0, 1}})
	<-started
	<-started
	c.close() // kill -9, morally: both runs are now mid-execution, unreported
	fc.ln.Close()

	// The journal carries what incarnation 1 did before dying.
	j, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.OpenEpoch("coord-1"); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs[:2] {
		j.Append(resilience.AttemptRecord{Run: r.ID, Point: savanna.PointKey(r),
			Event: resilience.AttemptDispatched, Worker: "w0", Time: time.Now()})
	}
	j.Close()

	// Incarnation 2 (real): resumes from the journal on a fresh address.
	// The worker's spool replays r0/r1; the first-terminal-outcome latch
	// dedups any re-dispatch race; the journal must end with exactly one
	// terminal record per run.
	succession := time.Now()
	ln2 := listen(t)
	addr.Store(ln2.Addr().String())
	e := &Engine{Listener: ln2, BatchSize: 4, LeaseTTL: time.Second, WorkerWait: 20 * time.Second,
		Tracer: telemetry.NewTracer()}
	results, report, info, err := Coordinate(context.Background(), CoordinateConfig{
		Engine: e, Campaign: "spool", Runs: runs,
		Journal: jpath, Holder: "coord-2", Resume: true, LeaseTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Complete() {
		t.Fatalf("report = %+v", report)
	}
	if info.Epoch != 2 {
		t.Fatalf("successor fenced at epoch %d, want 2", info.Epoch)
	}
	if len(results) != len(runs) { // nothing was Done in the journal yet
		t.Fatalf("dispatched %d results, want %d", len(results), len(runs))
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if pend := w.spoolInit().pending(); len(pend) != 0 {
		t.Errorf("cleanly drained worker still spools %d outcomes: %+v", len(pend), pend)
	}
	if n := atomic.LoadInt64(&executions); n != int64(len(runs)) {
		t.Errorf("%d executions for %d runs: a replayed run was dispatched again", n, len(runs))
	}

	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	success := map[string]int{}
	for _, r := range recs {
		if r.Event == resilience.AttemptSuccess || r.Event == resilience.AttemptCached {
			success[r.Run]++
		}
	}
	for _, r := range runs {
		if success[r.ID] != 1 {
			t.Errorf("run %s journaled %d terminal successes, want exactly 1", r.ID, success[r.ID])
		}
	}
	st := resilience.Replay(recs)
	if rem := st.Remaining(runIDs(runs)); len(rem) != 0 {
		t.Errorf("runs still owed after failover: %v", rem)
	}
	// Each replayed outcome filed exactly one worker span in the successor's
	// trace, at the worker's own start time: incarnation 1's, before the
	// successor existed. (A re-dispatch race's second execution starts
	// after.)
	for _, r := range runs[:2] {
		var replayed []telemetry.SpanData
		for _, d := range e.Tracer.Snapshot() {
			if d.Name == workerRunSpan && d.Attr("run") == r.ID && d.Start.Before(succession) {
				replayed = append(replayed, d)
			}
		}
		if len(replayed) != 1 {
			t.Errorf("run %s: %d worker spans from before the successor, want the replayed outcome's one: %+v",
				r.ID, len(replayed), replayed)
		}
	}
}

// TestSpoolReplayAcrossShiftedSlots: incarnation 1 (scripted) assigned runs 3
// and 4 at slots 3 and 4 of the full run list, then died; their outcomes wait
// in the worker's spool. Run 0 is journaled done, so incarnation 2 owes runs
// 1-5, and its slots 3 and 4 are runs 4 and 5: each replayed slot names
// another run. Checked against the run's id, the slot is not trusted, and
// each outcome reaches its own run through the id index — applied once, and
// nothing executes twice, with a batch wider than the replay.
func TestSpoolReplayAcrossShiftedSlots(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "attempts.jsonl")
	runs := testRuns(6)
	fc := newFakeCoord(t)
	var addr atomic.Value
	addr.Store(fc.addr())
	var mu sync.Mutex
	executed := map[string]int{}
	w := &Worker{
		Name: "w0", Slots: 1, Heartbeat: time.Hour, ReconnectWait: 10 * time.Second,
		Dial: func() (net.Conn, error) { return net.Dial("tcp", addr.Load().(string)) },
		Executor: execFn(func(ctx context.Context, run cheetah.Run) error {
			mu.Lock()
			executed[run.ID]++
			mu.Unlock()
			return nil
		}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve(ctx) }()

	c := fc.accept(1, 1)
	c.post(OpAssign, "w0", 1, &Assignment{Runs: []cheetah.Run{runs[3], runs[4]}, Slots: []int{3, 4}})
	for range 2 {
		if out, err := decodeBody[Outcome](fc.expect(c, OpResult)); err != nil || out.Slot != 3 && out.Slot != 4 {
			t.Fatalf("incarnation 1 got %+v, %v; want runs 3 and 4 at their slots", out, err)
		}
	}
	c.close() // unacknowledged: both outcomes stay spooled
	fc.ln.Close()

	j, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.OpenEpoch("coord-1"); err != nil {
		t.Fatal(err)
	}
	j.Append(resilience.AttemptRecord{Run: runs[0].ID, Point: savanna.PointKey(runs[0]),
		Event: resilience.AttemptSuccess, Attempt: 1, Worker: "w0", Time: time.Now()})
	for _, r := range runs[3:5] {
		j.Append(resilience.AttemptRecord{Run: r.ID, Point: savanna.PointKey(r),
			Event: resilience.AttemptDispatched, Worker: "w0", Time: time.Now()})
	}
	j.Close()

	// Batch 4: the worker is assigned nothing until its replay is in, so
	// runs 3 and 4, still owed, are not dispatched to it again.
	ln2 := listen(t)
	addr.Store(ln2.Addr().String())
	results, report, info, err := Coordinate(context.Background(), CoordinateConfig{
		Engine:   &Engine{Listener: ln2, BatchSize: 4, LeaseTTL: time.Second, WorkerWait: 20 * time.Second},
		Campaign: "shifted", Runs: runs, Journal: jpath, Holder: "coord-2", Resume: true, LeaseTTL: time.Second,
	})
	if err != nil || !report.Complete() || info.Done != 1 {
		t.Fatalf("report %+v, info %+v, err %v", report, info, err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	for i, r := range results {
		if r.Run.ID != runs[i+1].ID || r.Status != provenance.StatusSucceeded {
			t.Errorf("result %d = %+v, want %s succeeded", i, r, runs[i+1].ID)
		}
	}
	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	success := map[string]int{}
	for _, r := range recs {
		if r.Event == resilience.AttemptSuccess {
			success[r.Run]++
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, r := range runs {
		want := 1
		if i == 0 {
			want = 0 // done before incarnation 1's assign
		}
		if executed[r.ID] != want || success[r.ID] != 1 {
			t.Errorf("run %s: executed %d times, journaled %d successes; want %d and 1", r.ID, executed[r.ID], success[r.ID], want)
		}
	}
}

// TestWorkerServeReconnectNoGoroutineLeak pins satellite 2: forced
// coordinator drops must not leak the dead session's goroutines (reader,
// heartbeat, watcher, executors) across reconnects.
func TestWorkerServeReconnectNoGoroutineLeak(t *testing.T) {
	fc := newFakeCoord(t)
	defer fc.ln.Close()

	w := &Worker{
		Name: "w0", Addr: fc.addr(), Slots: 2, Heartbeat: 10 * time.Millisecond,
		Executor:      execFn(func(ctx context.Context, run cheetah.Run) error { return nil }),
		ReconnectWait: 30 * time.Second,
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- w.Serve(context.Background()) }()

	// Five sessions ending in abrupt coordinator death, then a clean drain.
	for i := 0; i < 5; i++ {
		c := fc.accept(int64(i+1), int64(i+1))
		c.post(OpAssign, "w0", int64(i+1), &Assignment{Runs: []cheetah.Run{{ID: fmt.Sprintf("r%d", i)}}, Slots: []int{i}})
		fc.expect(c, OpResult)
		c.close() // forced drop mid-session
	}
	c := fc.accept(6, 6)
	c.post(OpDrain, "w0", 6, nil)
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	c.close()

	// Goroutine counts need settling time; poll instead of sleeping blind.
	waitFor(t, 2*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	})
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines: %d before, %d after 5 reconnects", before, after)
	}
}

// TestCoordinateStandbyTakeover drives the warm-standby path in-process:
// a standby blocks on the primary's lease file, takes over when renewals
// stop, and finishes the campaign at a higher epoch.
func TestCoordinateStandbyTakeover(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "attempts.jsonl")
	runs := testRuns(30)

	// "Primary": fences epoch 1, journals a few runs done, then dies
	// without releasing its lease claim (the crash case).
	j, err := resilience.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.OpenEpoch("primary"); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs[:10] {
		j.Append(resilience.AttemptRecord{Run: r.ID, Point: savanna.PointKey(r),
			Attempt: 1, Event: resilience.AttemptSuccess, Worker: "w0", Time: time.Now()})
	}
	j.Close()
	if _, err := resilience.AcquireFileLease(jpath+".lease", "primary", 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The primary never renews again — it is dead.

	ln := listen(t)
	var executed int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &Worker{Name: fmt.Sprintf("w%d", i), Addr: ln.Addr().String(), Slots: 2,
			Heartbeat:     20 * time.Millisecond,
			ReconnectWait: 20 * time.Second,
			Executor: execFn(func(ctx context.Context, run cheetah.Run) error {
				atomic.AddInt64(&executed, 1)
				return nil
			})}
		wg.Add(1)
		go func() { defer wg.Done(); w.Serve(ctx) }()
	}

	e := &Engine{Listener: ln, BatchSize: 8, LeaseTTL: time.Second, WorkerWait: 20 * time.Second}
	start := time.Now()
	_, report, info, err := Coordinate(context.Background(), CoordinateConfig{
		Engine: e, Campaign: "standby", Runs: runs, Journal: jpath,
		Holder: "standby", Standby: true,
		LeaseTTL: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Complete() {
		t.Fatalf("report = %+v", report)
	}
	if info.Epoch != 2 {
		t.Errorf("standby fenced at epoch %d, want 2", info.Epoch)
	}
	if info.Done != 10 || info.Dispatched != 20 {
		t.Errorf("handover = %+v, want 10 done / 20 dispatched", info)
	}
	if e := time.Since(start); e < 100*time.Millisecond {
		t.Errorf("standby took over after %v — before the primary's claim could lapse", e)
	}
	if got := atomic.LoadInt64(&executed); got != 20 {
		t.Errorf("executed %d runs, want only the 20 the journal still owed", got)
	}
	// The lease file now names the standby at epoch 2.
	st, ok, _ := resilience.ReadFileLease(jpath + ".lease")
	if ok && (st.Holder != "standby" || st.Epoch != 2) {
		t.Errorf("lease claim = %+v", st)
	}
	cancel()
	wg.Wait()
}

// TestCoordinateRefusesDirtyJournalWithoutResume pins the accidental-reuse
// guard.
func TestCoordinateRefusesDirtyJournalWithoutResume(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, _ := resilience.OpenJournal(jpath)
	j.Append(resilience.AttemptRecord{Run: "r1", Attempt: 1, Event: resilience.AttemptSuccess, Time: time.Now()})
	j.Close()
	ln := listen(t)
	defer ln.Close()
	e := &Engine{Listener: ln}
	_, _, _, err := Coordinate(context.Background(), CoordinateConfig{
		Engine: e, Campaign: "dirty", Runs: testRuns(2), Journal: jpath,
	})
	if err == nil {
		t.Fatal("non-empty journal accepted without Resume")
	}
}

func runIDs(runs []cheetah.Run) []string {
	ids := make([]string, len(runs))
	for i, r := range runs {
		ids[i] = r.ID
	}
	return ids
}

func waitFor(t *testing.T, d time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !ok() {
		t.Fatalf("condition not reached within %v", d)
	}
}

// remoteV6 is the schema of the previous protocol version: msgSchema's
// fields under the old name.
func remoteV6() *stream.Schema {
	old := *msgSchema
	old.Name = "remote.v6"
	return &old
}

// TestProtocolMismatchRefusedLoudly connects a peer that opens a remote.v6
// stream to a live campaign. The coordinator refuses it at its first record
// — one Warn event, one count — answers with a record of its own so the
// peer's schema check can name both versions, leaves no goroutine behind,
// and the campaign runs on with a proper worker.
func TestProtocolMismatchRefusedLoudly(t *testing.T) {
	before := runtime.NumGoroutine()
	ln := listen(t)
	events := eventlog.NewLog()
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 4, LeaseTTL: 5 * time.Second, Events: events, Metrics: reg}
	campaign := make(chan resilience.CompletenessReport, 1)
	go func() {
		_, report, _ := e.RunCampaign(context.Background(), "mixed-fleet", testRuns(20))
		campaign <- report
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	enc, err := stream.NewEncoder(nc, remoteV6())
	if err != nil {
		t.Fatal(err)
	}
	hello, _ := stream.NewRecord(remoteV6(), OpHello, "old", int64(0), int64(0), []byte(`{"slots":1}`))
	if err := enc.Encode(stream.Item{Seq: 1, Time: time.Now(), Payload: hello}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// What the old peer gets back: a stream that names the version it met,
	// then the end.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	dec := stream.NewDecoder(nc)
	if s, err := dec.Schema(); err != nil || s.Name != msgSchema.Name {
		t.Fatalf("the refusal's stream header = %+v, %v; want schema %q", s, err, msgSchema.Name)
	}
	if _, err := dec.Decode(); err != nil {
		t.Fatalf("the refusal carries no record: %v", err)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("after the refusal: %v, want EOF", err)
	}

	w := &Worker{Name: "w0", Addr: ln.Addr().String(), Slots: 1, Heartbeat: time.Hour,
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if report := <-campaign; !report.Complete() || report.Succeeded != 20 {
		t.Fatalf("report = %+v", report)
	}
	refused := 0
	for _, ev := range events.Snapshot() {
		if ev.Type != eventlog.WorkerRefused {
			continue
		}
		refused++
		if ev.Level != eventlog.Warn || ev.Attr("offered") != "remote.v6" || ev.Attr("expected") != msgSchema.Name ||
			ev.Attr("peer") != nc.LocalAddr().String() {
			t.Errorf("worker.refused event = %+v", ev)
		}
	}
	if refused != 1 {
		t.Errorf("%d worker.refused events, want exactly 1", refused)
	}
	if got := reg.Counter("remote.protocol_mismatch_total").Value(); got != 1 {
		t.Errorf("protocol_mismatch_total = %d, want 1", got)
	}
	// The campaign returning shows the refused peer's handler did (it is in
	// the coordinator's wait group); this shows its writer did too.
	nc.Close()
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before })
}

// TestWorkerNamesBothSchemasOnMismatch is the other side: a worker that
// reaches a coordinator of another version ends its session with an error
// that names the version it met and its own.
func TestWorkerNamesBothSchemasOnMismatch(t *testing.T) {
	ln := listen(t)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		enc, _ := stream.NewEncoder(nc, remoteV6())
		grant, _ := stream.NewRecord(remoteV6(), OpLeaseGrant, "w0", int64(1), int64(0), []byte(`{"campaign":"old"}`))
		enc.Encode(stream.Item{Seq: 1, Time: time.Now(), Payload: grant})
		enc.Flush()
	}()
	w := &Worker{Name: "w0", Addr: ln.Addr().String(), Slots: 1,
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), `"remote.v6"`) || !strings.Contains(err.Error(), `"`+msgSchema.Name+`"`) {
		t.Fatalf("Run error = %v, want one naming both schemas", err)
	}
}

package remote

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

func TestSkewEstimatorEdgeCases(t *testing.T) {
	base := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)

	t.Run("zero sent ignored", func(t *testing.T) {
		var e skewEstimator
		e.sample(time.Time{}, 0, base)
		if e.valid {
			t.Fatal("zero sent produced a sample")
		}
	})

	t.Run("zero RTT still estimates", func(t *testing.T) {
		// First contact often has no round trip measured yet; the offset
		// then degrades to sent−recv, which is still right when the flight
		// is short next to the skew.
		var e skewEstimator
		e.sample(base.Add(5*time.Second), 0, base) // worker clock 5s ahead
		if !e.valid {
			t.Fatal("unmeasured sample rejected")
		}
		if e.offset != 5*time.Second {
			t.Fatalf("offset = %v, want 5s", e.offset)
		}
		if got := e.adjust(base.Add(7 * time.Second)); !got.Equal(base.Add(2 * time.Second)) {
			t.Fatalf("adjust = %v, want worker time pulled back by the skew", got)
		}
	})

	t.Run("worker clock behind gives negative offset", func(t *testing.T) {
		var e skewEstimator
		e.sample(base.Add(-3*time.Second), 10*time.Millisecond, base)
		want := -3*time.Second + 5*time.Millisecond // −3s + rtt/2
		if e.offset != want {
			t.Fatalf("offset = %v, want %v", e.offset, want)
		}
		if got := e.adjust(base); !got.Equal(base.Add(-want)) {
			t.Fatalf("adjust pushed the wrong way: %v", got)
		}
	})

	t.Run("negative rtt clamps to zero", func(t *testing.T) {
		var e skewEstimator
		e.sample(base, -5*time.Second, base)
		if !e.valid || e.rtt != 0 || e.offset != 0 {
			t.Fatalf("estimator = %+v, want a clean zero-rtt sample", e)
		}
	})

	t.Run("lowest measured RTT wins", func(t *testing.T) {
		var e skewEstimator
		e.sample(base.Add(time.Second), 0, base) // placeholder
		e.sample(base.Add(2*time.Second), 40*time.Millisecond, base)
		if e.rtt != 40*time.Millisecond {
			t.Fatal("measured sample did not replace the placeholder")
		}
		e.sample(base.Add(9*time.Second), 200*time.Millisecond, base) // worse RTT: ignored
		if e.rtt != 40*time.Millisecond || e.offset != 2*time.Second+20*time.Millisecond {
			t.Fatalf("worse-RTT sample overwrote the estimate: %+v", e)
		}
		e.sample(base.Add(3*time.Second), 10*time.Millisecond, base) // tighter: wins
		if e.rtt != 10*time.Millisecond || e.offset != 3*time.Second+5*time.Millisecond {
			t.Fatalf("tighter sample rejected: %+v", e)
		}
		// Once measured, placeholders never regress the estimate.
		e.sample(base.Add(100*time.Second), 0, base)
		if e.rtt != 10*time.Millisecond {
			t.Fatal("placeholder replaced a measured sample")
		}
	})

	t.Run("largest unmeasured offset wins", func(t *testing.T) {
		// With no round trip known, sent − recv falls short of the offset by
		// the sample's delay: a stale stamp must not displace a fresh one.
		var e skewEstimator
		e.sample(base.Add(2*time.Second), 0, base)
		e.sample(base.Add(-time.Minute), 0, base)
		if e.offset != 2*time.Second {
			t.Fatalf("offset = %v, want the least delayed sample's 2s", e.offset)
		}
		e.sample(base.Add(3*time.Second), 0, base)
		if e.offset != 3*time.Second {
			t.Fatalf("offset = %v, want 3s", e.offset)
		}
	})

	t.Run("adjust is inert when invalid or zero time", func(t *testing.T) {
		var e skewEstimator
		if got := e.adjust(base); !got.Equal(base) {
			t.Fatal("invalid estimator adjusted a timestamp")
		}
		e.sample(base.Add(time.Hour), 0, base)
		if !e.adjust(time.Time{}).IsZero() {
			t.Fatal("zero time adjusted")
		}
	})
}

func TestShipperBatchesCursorsAndDrops(t *testing.T) {
	tr := telemetry.NewTracer()
	tr.SetCapacity(4)
	reg := telemetry.NewRegistry()
	log := eventlog.NewLog()
	log.SetCapacity(4)
	sh := newShipper(tr, reg, log)
	if sh == nil {
		t.Fatal("shipper nil with live telemetry")
	}
	if newShipper(nil, nil, nil) != nil {
		t.Fatal("all-off shipper not nil")
	}

	// Six spans into a 4-cap buffer: 2 drop loudly.
	for i := 0; i < 6; i++ {
		_, s := tr.Start(context.Background(), "op")
		s.End()
	}
	// Six events into a 4-slot ring: the first 2 are overwritten before any
	// flush, which the cursor must report as a gap.
	for i := 0; i < 6; i++ {
		log.Append(eventlog.Info, "tick", "", 0)
	}
	reg.Counter("c").Add(3)

	b, ok := sh.next(2) // max 2: bounded batch
	if !ok {
		t.Fatal("first batch empty")
	}
	if len(b.Spans) != 2 || b.DroppedSpans != 2 {
		t.Fatalf("spans = %d dropped = %d, want 2 and 2", len(b.Spans), b.DroppedSpans)
	}
	if len(b.Events) != 2 || b.DroppedEvents != 2 {
		t.Fatalf("events = %d dropped = %d, want 2 and 2 (ring overwrote seq 1-2)", len(b.Events), b.DroppedEvents)
	}
	if b.Events[0].Seq != 3 {
		t.Fatalf("first shipped event seq = %d, want 3", b.Events[0].Seq)
	}
	if b.Metrics == nil || len(b.Metrics.Counters) != 1 || b.Metrics.Counters[0].Value != 3 {
		t.Fatalf("metrics delta = %+v", b.Metrics)
	}

	b2, ok := sh.next(100)
	if !ok {
		t.Fatal("second batch empty, backlog remains")
	}
	if len(b2.Spans) != 2 || b2.DroppedSpans != 0 {
		t.Fatalf("second spans = %d dropped = %d", len(b2.Spans), b2.DroppedSpans)
	}
	if len(b2.Events) != 2 || b2.DroppedEvents != 0 || b2.Events[1].Seq != 6 {
		t.Fatalf("second events = %+v", b2.Events)
	}
	if b2.Metrics != nil {
		t.Fatalf("unchanged metrics shipped again: %+v", b2.Metrics)
	}

	// Fully drained: nothing to send.
	if b3, ok := sh.next(100); ok {
		t.Fatalf("drained shipper produced %+v", b3)
	}
}

// TestHandleTelemetryMerge drives the coordinator-side merge directly: a
// worker batch with its own id space, a 5-second-fast clock, and a span that
// parents locally under a worker session span that ships in a LATER batch —
// the child still lands under it, with no map between the two batches. Ids
// that do not fit the worker's namespace are dropped and counted.
func TestHandleTelemetryMerge(t *testing.T) {
	e := &Engine{
		Tracer:  telemetry.NewTracer(),
		Metrics: telemetry.NewRegistry(),
		Events:  eventlog.NewLog(),
	}
	e.telemetryInit()
	co := mergeCoordinator(e)
	w := &wstate{name: "w9", lease: 3}

	recv := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	skewd := 5 * time.Second // worker clock runs 5s ahead
	wnow := recv.Add(skewd)

	batch1 := TelemetryBatch{
		SentUnixNano: wnow.UnixNano(),
		Spans: []telemetry.SpanData{
			// Child of the not-yet-shipped worker session span 100.
			{ID: 104, Parent: 100, Name: "remote.worker.idle", Start: wnow.Add(-20 * time.Millisecond), End: wnow},
			// Ids outside the worker's namespace: dropped, counted.
			{ID: 0, Name: "invalid"},
			{ID: 1 << workerSpanBits, Name: "invalid"},
			{ID: 105, Parent: -1, Name: "invalid"},
		},
		Events: []eventlog.Event{
			{Time: wnow, Level: eventlog.Info, Type: eventlog.WorkerJoin, Span: 104},
			{Time: wnow, Level: eventlog.Info, Type: eventlog.WorkerJoin, Span: 1 << 40},
		},
		Metrics:      &telemetry.MetricsSnapshot{Counters: []telemetry.CounterSnap{{Name: "remote_worker.runs_executed_total", Value: 7}}},
		DroppedSpans: 3,
	}
	co.handleTelemetry(w, batch1, recv)

	// Second batch ships the session span the first batch referenced.
	batch2 := TelemetryBatch{
		SentUnixNano: wnow.UnixNano(),
		Spans: []telemetry.SpanData{
			{ID: 100, Name: "remote.worker", Start: wnow.Add(-time.Second), End: wnow},
		},
	}
	co.handleTelemetry(w, batch2, recv)

	byName := map[string]telemetry.SpanData{}
	for _, s := range e.Tracer.Snapshot() {
		byName[s.Name] = s
	}
	sess, okSess := byName["remote.worker"]
	idle, okIdle := byName["remote.worker.idle"]
	if !okSess || !okIdle || len(byName) != 2 {
		t.Fatalf("merged spans = %+v, want the session and idle spans alone", byName)
	}

	// The idle span named span 100 one batch before it arrived, and lands
	// under it: worker ids map arithmetically into lease 3's namespace,
	// above every id the coordinator's own tracer hands out.
	if idle.Parent != sess.ID || sess.ID != 3<<workerSpanBits|100 || idle.ID != 3<<workerSpanBits|104 {
		t.Fatalf("idle %d under %d, session span at %d; want %d under %d", idle.ID, idle.Parent, sess.ID,
			3<<workerSpanBits|104, 3<<workerSpanBits|100)
	}
	// Merged ids stay below 2^53, which JSON readers hold exactly: the last
	// lease with a namespace maps the largest worker id under it, and the
	// next lease's ids do not fit.
	top := int64(1<<(53-workerSpanBits) - 1)
	if id := spanID(top, 1<<workerSpanBits-1); id != 1<<53-1 {
		t.Fatalf("largest merged id = %d, want 2^53-1", id)
	}
	if id := spanID(top+1, 1); id != 0 {
		t.Fatalf("a lease beyond the id space mapped span 1 to %d", id)
	}

	// Clock skew removed: the worker's 5s-fast timestamps land on the
	// coordinator timeline.
	if !idle.End.Equal(recv) {
		t.Fatalf("idle end = %v, want skew-adjusted %v", idle.End, recv)
	}
	if idle.Attr("worker") != "w9" {
		t.Fatal("worker attribution missing")
	}

	// Events: remapped span correlation, adjusted time, origin tag.
	evs := e.Events.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want the one whose span id fits", len(evs))
	}
	ev := evs[0]
	if ev.Span != idle.ID {
		t.Fatalf("event span = %d, want remapped %d", ev.Span, idle.ID)
	}
	if !ev.Time.Equal(recv) {
		t.Fatalf("event time = %v, want %v", ev.Time, recv)
	}
	if ev.Attr("origin") != "worker" || ev.Attr("worker") != "w9" {
		t.Fatalf("event attrs = %+v", ev.Attrs)
	}

	// Metrics folded under the worker label; drops counted.
	if got := e.Metrics.Counter("remote_worker.runs_executed_total", "worker", "w9").Value(); got != 7 {
		t.Fatalf("merged counter = %d", got)
	}
	if got := e.mTelemetryDropped.Value(); got != 3+4 {
		t.Fatalf("telemetry_dropped = %d, want the worker's 3 and the merge's 4", got)
	}
	if got := e.mTelemetryBatches.Value(); got != 2 {
		t.Fatalf("telemetry_batches = %d, want 2", got)
	}
}

// mergeCoordinator is the part of a coordinator the telemetry merge reads:
// the engine and the campaign's runs, each begun, at slots in order.
func mergeCoordinator(e *Engine, ids ...string) *coordinator {
	co := &coordinator{e: e, workers: map[string]*wstate{}}
	for _, id := range ids {
		co.runs = append(co.runs, cheetah.Run{ID: id})
	}
	co.state, co.results = make([]savanna.RunState, len(ids)), make([]savanna.RunResult, len(ids))
	for i := range ids {
		co.st(i)
	}
	return co
}

// TestTraceMergeParentsReDispatchedAttempts: a run whose first worker's lease
// expired is re-dispatched to a second worker, and both workers report it —
// the first from the session the coordinator declared dead, after the second
// ended the run. Each outcome files exactly one worker span, at its worker's
// own start time, both under the run's one coordinator span.
func TestTraceMergeParentsReDispatchedAttempts(t *testing.T) {
	e := &Engine{Tracer: telemetry.NewTracer(), Metrics: telemetry.NewRegistry(), Events: eventlog.NewLog()}
	e.telemetryInit()
	co := mergeCoordinator(e, "g/s/run-1")
	_, runSpan := e.Tracer.Start(context.Background(), "remote.run", telemetry.String("run", "g/s/run-1"))
	co.state[0].Span = runSpan
	co.state[0].Result.Status = provenance.StatusSucceeded // the live worker's outcome ended it
	expired := &wstate{name: "wa", lease: 1, dead: true, outstanding: map[int]bool{}}
	live := &wstate{name: "wb", lease: 2, outstanding: map[int]bool{}}
	started := map[string]time.Time{}
	for i, w := range []*wstate{live, expired} {
		started[w.name] = time.Now().Add(-time.Duration(i+1) * time.Second).Truncate(time.Microsecond)
		co.handleResultLocked(w, Outcome{RunID: "g/s/run-1", OK: true, Seconds: 0.25,
			StartUnixNano: started[w.name].UnixNano(), Span: 2})
	}
	runSpan.End()
	spans := map[string]telemetry.SpanData{}
	for _, d := range e.Tracer.Snapshot() {
		if d.Name == workerRunSpan {
			if _, twice := spans[d.Attr("worker")]; twice {
				t.Fatalf("a second worker span from %s: %+v", d.Attr("worker"), d)
			}
			spans[d.Attr("worker")] = d
		}
	}
	if len(spans) != 2 {
		t.Fatalf("worker spans = %+v, want one from each worker", spans)
	}
	for name, d := range spans {
		if d.Parent != runSpan.ID() || !d.Start.Equal(started[name]) || d.Duration() != 250*time.Millisecond {
			t.Errorf("%s's span = %+v, want under the run span %d from its own start %v for 250ms",
				name, d, runSpan.ID(), started[name])
		}
	}
	if got := e.mDuplicates.Value(); got != 2 {
		t.Errorf("runs_duplicate_total = %d, want both outcomes counted as duplicates", got)
	}
}

// TestWorkerSpanSkewWithoutHeartbeat: a worker whose clock runs 5 s fast
// reports runs before its first heartbeat. Each outcome's end stamp is an
// unmeasured skew sample, so its span lands on the coordinator's timeline. A
// stamp that sat in the writer's queue does not displace a fresher one; a
// spool replay's (a run the session does not hold, or an attempt older than
// the lease) is no sample; and a heartbeat's measured round trip outranks
// every outcome. A span the estimate would end after its outcome was
// received is moved back, whole, to end at the receipt.
func TestWorkerSpanSkewWithoutHeartbeat(t *testing.T) {
	e := &Engine{Tracer: telemetry.NewTracer(), Metrics: telemetry.NewRegistry()}
	e.telemetryInit()
	co := mergeCoordinator(e, "r1", "r2", "r3", "r4", "r5")
	for i := range co.state {
		co.state[i].Result.Status = provenance.StatusSucceeded // the span is all this test reads
	}
	w := &wstate{name: "w0", lease: 1, joined: time.Now().Add(-2 * time.Second),
		outstanding: map[int]bool{0: true, 2: true, 3: true, 4: true}} // r1, r3, r4, r5
	const fast = 5 * time.Second
	const elapsed = 500 * time.Millisecond
	const slack = 50 * time.Millisecond
	// report hands over run's outcome, which ended ago before now and waited
	// wait in the worker's queue, and returns its span, where the span
	// should end on the coordinator's clock, and when the outcome was
	// handed over.
	report := func(run string, ago, wait time.Duration) (span telemetry.SpanData, want, recv time.Time) {
		now := time.Now()
		end := now.Add(fast - ago)
		slot := int(run[1] - '1')
		co.handleResultLocked(w, Outcome{RunID: run, OK: true, Seconds: elapsed.Seconds(), StartUnixNano: end.Add(-elapsed).UnixNano(),
			QueueWaitNanos: int64(wait), Span: int64(slot + 1), Slot: slot})
		for _, d := range e.Tracer.Snapshot() {
			if d.Attr("run") == run {
				span = d
			}
		}
		return span, now.Add(-ago), now
	}
	near := func(what string, got, want time.Time, by time.Duration) {
		t.Helper()
		if d := got.Sub(want); d < -by || d > by {
			t.Errorf("%s: span ends %v, want %v ± %v", what, got, want, by)
		}
	}
	offset := func(what string, want time.Duration) {
		t.Helper()
		if d := w.skew.offset - want; d < -slack || d > slack {
			t.Errorf("%s: skew estimate %v, want %v ± %v", what, w.skew.offset, want, slack)
		}
	}
	span, want, _ := report("r1", 0, 0)
	near("the first outcome", span.End, want, slack)
	span, want, _ = report("r2", time.Minute, 0)
	near("a replay of a run the session does not hold", span.End, want, slack)
	span, want, _ = report("r3", time.Second, 0)
	near("an outcome queued a second", span.End, want, slack)
	// An attempt that began before the grant: its stamp would move the
	// estimate a second (its end looks a second ahead), and must not. On
	// the estimate its span ends a second after the outcome was received,
	// so it is moved back to end at the receipt, its length kept.
	span, _, recv := report("r4", -time.Second, 10*time.Second)
	offset("after an attempt older than the lease", fast)
	near("an attempt that ended after its receipt", span.End, recv, slack)
	if d := span.End.Sub(span.Start); d != elapsed {
		t.Errorf("a span moved back to its receipt lasts %v, want %v", d, elapsed)
	}
	// A heartbeat with a measured round trip: its estimate (the worker
	// 4 s fast) holds against later outcomes.
	now := time.Now()
	w.skew.sample(now.Add(4*time.Second+time.Millisecond), 2*time.Millisecond, now.Add(2*time.Millisecond))
	span, want, _ = report("r5", 2*time.Second, 0)
	offset("after a measured heartbeat", 4*time.Second)
	near("after a measured heartbeat", span.End, want.Add(time.Second), slack)
}

// TestDistributedTraceMerge is the tentpole's end-to-end check: two fully
// instrumented workers execute a campaign, and the coordinator ends up with
// ONE trace — campaign → dispatch → worker run spans from both workers —
// plus per-worker metric series and span-correlated worker events.
func TestDistributedTraceMerge(t *testing.T) {
	runs := testRuns(80)
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	events := eventlog.NewLog()
	ln := listen(t)
	e := &Engine{Listener: ln, BatchSize: 8, LeaseTTL: 2 * time.Second,
		Tracer: tracer, Metrics: metrics, Events: events}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	payload := execFn(func(ctx context.Context, run cheetah.Run) error {
		time.Sleep(4 * time.Millisecond)
		return nil
	})
	for _, name := range []string{"wa", "wb"} {
		w := &Worker{Name: name, Addr: ln.Addr().String(), Executor: payload,
			Slots: 2, Heartbeat: 15 * time.Millisecond,
			Tracer:  telemetry.NewTracer(),
			Metrics: telemetry.NewRegistry(),
			Events:  eventlog.NewLog()}
		go w.Run(ctx)
	}

	_, report, err := e.RunCampaign(context.Background(), "merge", runs)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Complete() {
		t.Fatalf("report = %+v", report)
	}

	spans := tracer.Snapshot()
	byID := map[int64]telemetry.SpanData{}
	var campaignID int64
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "remote.campaign" {
			campaignID = s.ID
		}
	}
	if campaignID == 0 {
		t.Fatal("no campaign span")
	}

	// Every parent reference resolves, and worker run spans from BOTH
	// workers chain campaign → dispatch → worker run.
	perWorker := map[string]int{}
	for _, s := range spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				t.Fatalf("span %d (%s) has orphaned parent %d", s.ID, s.Name, s.Parent)
			}
		}
		if s.Name != "remote.worker.run" {
			continue
		}
		wk := s.Attr("worker")
		if wk == "" {
			t.Fatalf("worker run span %d missing worker attribution", s.ID)
		}
		dispatch, ok := byID[s.Parent]
		if !ok || dispatch.Name != "remote.run" || dispatch.Attr("run") != s.Attr("run") {
			t.Fatalf("worker run span %d (run %s) not under its run's dispatch span (parent %d %q, run %s)",
				s.ID, s.Attr("run"), s.Parent, dispatch.Name, dispatch.Attr("run"))
		}
		if dispatch.Parent != campaignID {
			t.Fatalf("dispatch span %d not under the campaign span", dispatch.ID)
		}
		perWorker[wk]++
	}
	if len(perWorker) < 2 {
		t.Fatalf("worker run spans from %v, want both workers", perWorker)
	}
	total := 0
	for _, n := range perWorker {
		total += n
	}
	if total != len(runs) {
		t.Fatalf("worker run spans = %d, want %d (every run executed exactly once, drained batches all merged)", total, len(runs))
	}

	// Per-worker metric series merged into the coordinator registry.
	for _, name := range []string{"wa", "wb"} {
		snap := metrics.Snapshot()
		found := false
		for _, h := range snap.Histograms {
			if h.Name == "remote_worker.run_seconds" && h.Labels["worker"] == name && h.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no merged remote_worker.run_seconds series for %s", name)
		}
		if got := metrics.Counter("remote_worker.runs_executed_total", "worker", name).Value(); got == 0 {
			t.Fatalf("no merged executed counter for %s", name)
		}
	}
	if got := metrics.Counter("remote.telemetry_batches_total").Value(); got < 2 {
		t.Fatalf("telemetry batches = %d, want ≥2 (one per worker at least)", got)
	}
	// The heartbeat echo measured at least one round trip.
	for _, h := range metrics.Snapshot().Histograms {
		if h.Name == "remote.heartbeat_rtt_seconds" && h.Count == 0 {
			t.Fatal("heartbeat RTT histogram empty")
		}
	}

	// Worker events merged span-correlated: every shipped event (a session's
	// join and leave) points at a span that exists in the merged trace.
	workerEvents := 0
	for _, ev := range events.Snapshot() {
		if ev.Attr("origin") != "worker" {
			continue
		}
		workerEvents++
		if ev.Span != 0 {
			if _, ok := byID[ev.Span]; !ok {
				t.Fatalf("worker event %q points at unknown span %d", ev.Type, ev.Span)
			}
		}
		if strings.HasPrefix(ev.Type, "run.") {
			t.Fatalf("a worker shipped a run event, which its Outcome carries: %+v", ev)
		}
	}
	if workerEvents == 0 {
		t.Fatal("no worker events merged")
	}
}

// TestDrainBacklogCountedAsDropped pins §4h's "dropping is allowed, silence
// is not" at the drain: a worker that ends the campaign holding 8 999
// finished spans ships the 8 × 1024 the drain burst allows, and the rest —
// which no buffer overflowed, so no local drop counter saw — arrives as a
// count on remote.telemetry_dropped_total. The one run's span is the
// coordinator's, filed from its Outcome, outside the burst.
func TestDrainBacklogCountedAsDropped(t *testing.T) {
	const held = 9000
	ln := listen(t)
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 1, LeaseTTL: 5 * time.Second, Tracer: telemetry.NewTracer(), Metrics: reg}
	e.Tracer.SetCapacity(2 * held)

	wtr := telemetry.NewTracer()
	// The session span ends during the campaign.
	for i := 0; i < held-2; i++ {
		_, sp := wtr.Start(context.Background(), "backlog")
		sp.End()
	}
	w := &Worker{Name: "w0", Addr: ln.Addr().String(), Slots: 1, Heartbeat: time.Hour, Tracer: wtr,
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	if _, report, err := e.RunCampaign(context.Background(), "backlog", testRuns(1)); err != nil || report.Succeeded != 1 {
		t.Fatalf("report = %+v err=%v", report, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if got := wtr.Finished(); got != held-1 {
		t.Fatalf("the worker finished %d spans, want %d", got, held-1)
	}
	const shipped = maxDrainFlushes * maxTelemetryBatch
	if got := reg.Counter("remote.telemetry_spans_total").Value(); got != shipped {
		t.Errorf("telemetry_spans_total = %d, want %d", got, shipped)
	}
	merged := 0
	for _, d := range e.Tracer.Snapshot() {
		if d.Attr("worker") == "w0" && d.Name != workerRunSpan {
			merged++
		}
	}
	if merged != shipped {
		t.Errorf("the coordinator's tracer gained %d shipped worker spans, want %d", merged, shipped)
	}
	if got := reg.Counter("remote.telemetry_dropped_total").Value(); got != held-1-shipped {
		t.Errorf("telemetry_dropped_total = %d, want the %d spans the drain left behind", got, held-1-shipped)
	}
}

// TestEveryRunFilesOneWorkerSpan: a campaign of more runs than the drain
// burst could ship, on a worker with a tracer and an event log and no
// heartbeat before the end, puts exactly one worker span per run in the
// merged trace — under its run's remote.run span, with the attributes the
// worker's own span carried — and loses no telemetry.
func TestEveryRunFilesOneWorkerSpan(t *testing.T) {
	const n = 9000
	ln := listen(t)
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 32, LeaseTTL: 5 * time.Second, Tracer: telemetry.NewTracer(), Metrics: reg}
	w := &Worker{Name: "w0", Addr: ln.Addr().String(), Slots: 1, Heartbeat: time.Hour,
		Tracer: telemetry.NewTracer(), Events: eventlog.NewLog(),
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, report, err := e.RunCampaign(context.Background(), "every-run", testRuns(n)); err != nil || report.Succeeded != n {
		t.Fatalf("report = %+v err=%v", report, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	spans := e.Tracer.Snapshot()
	runSpans := map[int64]string{}
	for _, d := range spans {
		if d.Name == "remote.run" {
			runSpans[d.ID] = d.Attr("run")
		}
	}
	perRun := map[string]int{}
	for _, d := range spans {
		if d.Name != workerRunSpan {
			continue
		}
		run := d.Attr("run")
		perRun[run]++
		if runSpans[d.Parent] != run || d.Attr("worker") != "w0" || d.Attr("status") != "succeeded" || d.Attr("queue_wait_s") == "" {
			t.Fatalf("worker span %+v: want it under run %s's remote.run span, with worker, status and queue_wait_s", d, run)
		}
	}
	if len(perRun) != n {
		t.Fatalf("worker spans for %d runs, want %d", len(perRun), n)
	}
	for run, k := range perRun {
		if k != 1 {
			t.Fatalf("run %s has %d worker spans, want 1", run, k)
		}
	}
	if got := reg.Counter("remote.telemetry_dropped_total").Value(); got != 0 {
		t.Errorf("telemetry_dropped_total = %d, want 0", got)
	}
}

// TestWorkerTraceparentNamesFiledSpan: a run's process, started by a
// ProcessExecutor under a remote worker, is handed a TRACEPARENT that names
// the coordinator's trace and the id the coordinator files the attempt's
// worker span under, a span of the merged trace.
func TestWorkerTraceparentNamesFiledSpan(t *testing.T) {
	ln := listen(t)
	e := &Engine{Listener: ln, BatchSize: 2, LeaseTTL: 5 * time.Second, Tracer: telemetry.NewTracer()}
	dir := t.TempDir()
	w := &Worker{Name: "w0", Addr: ln.Addr().String(), Slots: 2, Heartbeat: time.Hour, Tracer: telemetry.NewTracer(),
		Executor: &savanna.ProcessExecutor{Command: []string{"sh", "-c", `echo "$TRACEPARENT" > tp`}, WorkRoot: dir}}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	runs := testRuns(4)
	if _, report, err := e.RunCampaign(context.Background(), "traceparent", runs); err != nil || report.Succeeded != len(runs) {
		t.Fatalf("report = %+v err=%v", report, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	filed := map[string]int64{}
	for _, d := range e.Tracer.Snapshot() {
		if d.Name == workerRunSpan {
			filed[d.Attr("run")] = d.ID
		}
	}
	for _, r := range runs {
		got, err := os.ReadFile(filepath.Join(dir, r.ID, "tp"))
		if err != nil {
			t.Fatal(err)
		}
		want := telemetry.SpanContext{Trace: e.Tracer.TraceID(), Span: filed[r.ID]}
		if !want.Valid() || strings.TrimSpace(string(got)) != want.String() {
			t.Errorf("run %s: TRACEPARENT = %q, want %q: the coordinator's trace, the worker span it filed", r.ID, got, want)
		}
	}
}

// TestShipperSurvivesReconnect: a worker's telemetry shipper outlives its
// sessions. A second session at the same coordinator epoch ships only what
// the first did not — no span, event or counter delta twice — and a session
// at a higher epoch, a successor coordinator that has none of it, gets the
// whole backlog again.
func TestShipperSurvivesReconnect(t *testing.T) {
	fc := newFakeCoord(t)
	defer fc.ln.Close()
	tr, reg, log := telemetry.NewTracer(), telemetry.NewRegistry(), eventlog.NewLog()
	mark := func(name string) {
		_, sp := tr.Start(context.Background(), name)
		sp.End()
		log.Append(eventlog.Info, "test.mark", name, 0)
		reg.Counter("test.marks_total").Inc()
	}
	w := &Worker{Name: "w0", Addr: fc.addr(), Slots: 1, Heartbeat: 5 * time.Millisecond,
		Tracer: tr, Metrics: reg, Events: log,
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}

	// session serves one session until the span named until has shipped,
	// then breaks the connection. It returns the marks that shipped: span
	// names, event messages, and the sum of the counter's deltas.
	session := func(epoch, lease int64, until string) (spans, events []string, count int64) {
		done := make(chan error, 1)
		go func() { done <- w.Run(context.Background()) }()
		c := fc.accept(epoch, lease)
		for !slices.Contains(spans, until) {
			m, err := c.recv(5 * time.Second)
			if err != nil {
				t.Fatalf("epoch %d: waiting for span %s: %v", epoch, until, err)
			}
			if m.Op != OpTelemetry {
				continue
			}
			b, err := decodeBody[TelemetryBatch](m)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range b.Spans {
				if d.Name != "remote.worker" {
					spans = append(spans, d.Name)
				}
			}
			for _, ev := range b.Events {
				if ev.Type == "test.mark" {
					events = append(events, ev.Msg)
				}
			}
			if b.Metrics != nil {
				for _, s := range b.Metrics.Counters {
					if s.Name == "test.marks_total" {
						count += s.Value
					}
				}
			}
		}
		c.close()
		if err := <-done; err == nil {
			t.Fatalf("epoch %d: the broken session ended cleanly", epoch)
		}
		return spans, events, count
	}

	mark("one")
	session(1, 1, "one")
	mark("two")
	if spans, events, count := session(1, 2, "two"); !slices.Equal(spans, []string{"two"}) ||
		!slices.Equal(events, []string{"two"}) || count != 1 {
		t.Errorf("same-epoch reconnect shipped spans %v, events %v, counter delta %d; want only the second mark",
			spans, events, count)
	}
	mark("three")
	all := []string{"one", "two", "three"}
	if spans, events, count := session(2, 3, "three"); !slices.Equal(spans, all) ||
		!slices.Equal(events, all) || count != 3 {
		t.Errorf("a successor at epoch 2 got spans %v, events %v, counter delta %d; want all three marks",
			spans, events, count)
	}
}

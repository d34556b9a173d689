package remote

import (
	"context"
	"strings"
	"testing"
	"time"

	"fairflow/internal/cheetah"
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
// worker batch with its own id space, a 5-second-fast clock, spans that
// parent (a) remotely under a dispatch span, (b) locally under a worker
// session span that ships in a LATER batch, and (c) under a foreign trace.
func TestHandleTelemetryMerge(t *testing.T) {
	e := &Engine{
		Tracer:  telemetry.NewTracer(),
		Metrics: telemetry.NewRegistry(),
		Events:  eventlog.NewLog(),
	}
	e.telemetryInit()
	co := &coordinator{e: e, workers: map[string]*wstate{}}
	w := &wstate{name: "w9"}

	// The dispatch span whose context travelled in the assignment.
	_, dispatch := e.Tracer.Start(context.Background(), "remote.run")
	dispatch.End()
	pc := telemetry.SpanContext{Trace: e.Tracer.TraceID(), Span: dispatch.ID()}

	recv := time.Date(2024, 6, 1, 12, 0, 0, 0, time.UTC)
	skewd := 5 * time.Second // worker clock runs 5s ahead
	wnow := recv.Add(skewd)

	foreign := telemetry.SpanContext{Trace: telemetry.NewTraceID(), Span: 1}
	batch1 := TelemetryBatch{
		SentUnixNano: wnow.UnixNano(),
		Spans: []telemetry.SpanData{
			// Child of the not-yet-shipped worker session span 100.
			{ID: 101, Parent: 100, Remote: pc.String(), Name: "remote.worker.run",
				Start: wnow.Add(-20 * time.Millisecond), End: wnow},
			// Parented in another campaign's trace: must re-root, not attach.
			{ID: 102, Remote: foreign.String(), Name: "stray", Start: wnow, End: wnow},
			{ID: 0, Name: "invalid"}, // id 0: dropped
		},
		Events: []eventlog.Event{
			{Time: wnow, Level: eventlog.Info, Type: eventlog.RunSucceeded, Span: 101},
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

	spans := e.Tracer.Snapshot()
	byName := map[string]telemetry.SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	run, okRun := byName["remote.worker.run"]
	sess, okSess := byName["remote.worker"]
	stray, okStray := byName["stray"]
	if !okRun || !okSess || !okStray {
		t.Fatalf("merged spans missing: %+v", spans)
	}
	if _, leaked := byName["invalid"]; leaked {
		t.Fatal("id-0 span entered the trace")
	}

	// Remote parent resolved to the dispatch span; the remote marker is
	// consumed territory for exporters but Parent is what matters.
	if run.Parent != dispatch.ID() {
		t.Fatalf("run parent = %d, want dispatch %d", run.Parent, dispatch.ID())
	}
	// The lazily-reserved id for span 100 matches where the session span
	// landed when it arrived one batch later.
	if got := w.idmap[100]; got != sess.ID {
		t.Fatalf("idmap[100] = %d but session span landed at %d", got, sess.ID)
	}
	if stray.Parent != 0 {
		t.Fatalf("foreign-trace span parent = %d, want re-rooted 0", stray.Parent)
	}
	// Worker ids re-keyed into the coordinator's space without collisions.
	if run.ID == 101 || run.ID == dispatch.ID() || run.ID == sess.ID {
		t.Fatalf("suspicious remapped id %d", run.ID)
	}

	// Clock skew removed: the worker's 5s-fast timestamps land on the
	// coordinator timeline.
	if !run.End.Equal(recv) {
		t.Fatalf("run end = %v, want skew-adjusted %v", run.End, recv)
	}
	if run.Attr("worker") != "w9" {
		t.Fatal("worker attribution missing")
	}

	// Events: remapped span correlation, adjusted time, origin tag.
	evs := e.Events.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if ev.Span != run.ID {
		t.Fatalf("event span = %d, want remapped %d", ev.Span, run.ID)
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
	if got := e.mTelemetryDropped.Value(); got != 3 {
		t.Fatalf("telemetry_dropped = %d, want 3", got)
	}
	if got := e.mTelemetryBatches.Value(); got != 2 {
		t.Fatalf("telemetry_batches = %d, want 2", got)
	}
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
		if !ok || dispatch.Name != "remote.run" {
			t.Fatalf("worker run span %d not under a dispatch span (parent %d %q)", s.ID, s.Parent, dispatch.Name)
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

	// Worker events merged span-correlated: every shipped run.succeeded
	// event points at a span that exists in the merged trace.
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
		if strings.HasPrefix(ev.Type, "run.") && ev.Attr("worker") == "" {
			t.Fatalf("worker run event lacks worker attr: %+v", ev)
		}
	}
	if workerEvents == 0 {
		t.Fatal("no worker events merged")
	}
}

// TestDrainBacklogCountedAsDropped pins §4h's "dropping is allowed, silence
// is not" at the drain: a worker that ends the campaign holding 9 000
// finished spans ships the 8 × 1024 the drain burst allows, and the rest —
// which no buffer overflowed, so no local drop counter saw — arrives as a
// count on remote.telemetry_dropped_total.
func TestDrainBacklogCountedAsDropped(t *testing.T) {
	const held = 9000
	ln := listen(t)
	reg := telemetry.NewRegistry()
	e := &Engine{Listener: ln, BatchSize: 1, LeaseTTL: 5 * time.Second, Tracer: telemetry.NewTracer(), Metrics: reg}
	e.Tracer.SetCapacity(2 * held)

	wtr := telemetry.NewTracer()
	// The one run's span and the session span end during the campaign.
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
	if got := wtr.Finished(); got != held {
		t.Fatalf("the worker finished %d spans, want %d", got, held)
	}
	const shipped = maxDrainFlushes * maxTelemetryBatch
	if got := reg.Counter("remote.telemetry_spans_total").Value(); got != shipped {
		t.Errorf("telemetry_spans_total = %d, want %d", got, shipped)
	}
	merged := 0
	for _, d := range e.Tracer.Snapshot() {
		if d.Attr("worker") == "w0" {
			merged++
		}
	}
	if merged != shipped {
		t.Errorf("the coordinator's tracer gained %d worker spans, want %d", merged, shipped)
	}
	if got := reg.Counter("remote.telemetry_dropped_total").Value(); got != held-shipped {
		t.Errorf("telemetry_dropped_total = %d, want the %d spans the drain left behind", got, held-shipped)
	}
}

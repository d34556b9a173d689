// Telemetry synchronisation for the execution plane: the worker-side
// shipper that drains local telemetry toward the coordinator in bounded
// batches, the NTP-lite per-worker clock-skew estimator, the coordinator-side
// merge that re-keys worker spans, events and metric deltas into the
// campaign's single trace, and the worker run span filed from each Outcome.
// See DESIGN.md §4h.

package remote

import (
	"sync"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// workerRunSpan names the span the coordinator files for each attempt a
// worker reports (fileWorkerSpanLocked).
const workerRunSpan = "remote.worker.run"

// maxTelemetryBatch caps the spans and the events carried by one
// OpTelemetry message, bounding both the message size and the work one
// merge does under the coordinator's lock.
const maxTelemetryBatch = 1024

// maxDrainFlushes bounds the final flush burst after OpDrain: a worker
// ships at most this many batches before closing, because drain must
// complete inside the coordinator's shutdown grace window. Backlog beyond it
// is abandoned, and counted: the local buffers' own drop counters see only
// overflow, so the last batch of the burst carries what is left unshipped in
// its Dropped counts (shipper.abandon).
const maxDrainFlushes = 8

// skewEstimator estimates one worker's clock offset from the coordinator's
// clock, so merged span and event timestamps land on the coordinator's
// timeline instead of interleaving two unsynchronised clocks.
type skewEstimator struct {
	valid  bool
	rtt    time.Duration
	offset time.Duration // worker clock minus coordinator clock
}

// sample folds one observation: the worker stamped sent (its clock) on a
// message the coordinator received at recv (coordinator clock); rtt is the
// worker's last measured heartbeat round trip (0 = not measured yet). With
// the one-way flight taken as rtt/2, synchronised clocks would give
// recv ≈ sent + rtt/2, so the offset estimate is sent + rtt/2 − recv.
// NTP-style, the lowest-RTT measured sample wins: queueing delay only
// inflates the round trip, so the tightest one bounds the estimate's error
// best. Unmeasured samples (an outcome's end stamp, a heartbeat before the
// first echo) stand in until a measured one arrives, the largest offset
// winning: sent − recv falls short of the offset by the sample's delay.
func (e *skewEstimator) sample(sent time.Time, rtt time.Duration, recv time.Time) {
	if sent.IsZero() {
		return
	}
	rtt = max(rtt, 0)
	offset := sent.Add(rtt / 2).Sub(recv)
	measured, best := rtt > 0, e.rtt > 0
	switch {
	case !e.valid:
	case measured && (!best || rtt <= e.rtt):
	case !measured && !best && offset > e.offset:
	default:
		return
	}
	e.valid, e.rtt, e.offset = true, rtt, offset
}

// adjust maps a worker-clock timestamp onto the coordinator's timeline.
func (e *skewEstimator) adjust(t time.Time) time.Time {
	if !e.valid || t.IsZero() {
		return t
	}
	return t.Add(-e.offset)
}

// shipper drains a worker's local telemetry toward the coordinator. It
// keeps three cursors — an index into the tracer's append-only span
// buffer, the event log's sequence number, and the previous metrics
// snapshot for deltas — and assembles bounded batches on demand. It never
// blocks the result path: a flush takes whatever is finished, and loss
// (span-buffer overflow, event-ring overwrite outrunning the cursor) is
// detected and reported in the batch's Dropped counts rather than stalling
// anything.
type shipper struct {
	tracer  *telemetry.Tracer
	metrics *telemetry.Registry
	events  *eventlog.Log

	mu          sync.Mutex
	spanCursor  int
	spanDropped int64 // tracer's drop counter at the last flush
	eventCursor int64
	prev        telemetry.MetricsSnapshot
}

// newShipper returns nil when the worker has nothing to ship — the
// telemetry-off path stays a nil check.
func newShipper(tr *telemetry.Tracer, reg *telemetry.Registry, log *eventlog.Log) *shipper {
	if tr == nil && reg == nil && log == nil {
		return nil
	}
	return &shipper{tracer: tr, metrics: reg, events: log}
}

// next assembles the next batch, at most max spans and max events; ok
// reports whether the batch carries anything worth sending.
func (sh *shipper) next(max int) (b TelemetryBatch, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	b.Spans = sh.tracer.SnapshotSince(sh.spanCursor, max)
	sh.spanCursor += len(b.Spans)
	if d := sh.tracer.Dropped(); d > sh.spanDropped {
		b.DroppedSpans = d - sh.spanDropped
		sh.spanDropped = d
	}

	evs := sh.events.Since(sh.eventCursor, max)
	if len(evs) > 0 {
		// A gap between the cursor and the oldest surviving event means the
		// ring overwrote journal we never shipped.
		if gap := evs[0].Seq - sh.eventCursor - 1; gap > 0 {
			b.DroppedEvents = gap
		}
		sh.eventCursor = evs[len(evs)-1].Seq
		b.Events = evs
	}

	cur := sh.metrics.Snapshot()
	delta := telemetry.DeltaSnapshot(sh.prev, cur)
	sh.prev = cur
	if len(delta.Counters)+len(delta.Gauges)+len(delta.Histograms) > 0 {
		b.Metrics = &delta
	}

	ok = len(b.Spans) > 0 || len(b.Events) > 0 || b.Metrics != nil ||
		b.DroppedSpans > 0 || b.DroppedEvents > 0
	return b, ok
}

// rewind moves every cursor back to the start, so the next batches ship the
// whole backlog again (a no-op on a nil shipper).
func (sh *shipper) rewind() {
	if sh == nil {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.spanCursor, sh.spanDropped, sh.eventCursor = 0, 0, 0
	sh.prev = telemetry.MetricsSnapshot{}
}

// abandon gives up on everything finished or journaled since the last batch:
// it moves both cursors to the end and returns how many spans and events
// that skipped, for the caller to report as dropped.
func (sh *shipper) abandon() (spans, events int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := sh.tracer.Finished(); n > sh.spanCursor {
		spans, sh.spanCursor = int64(n-sh.spanCursor), n
	}
	if last := sh.events.LastSeq(); last > sh.eventCursor {
		events, sh.eventCursor = last-sh.eventCursor, last
	}
	return spans, events
}

// workerSpanBits splits the coordinator tracer's span ids: the tracer
// numbers its own spans from 1, below 2^32, and the worker holding lease n
// files its span x at n<<32 | x. Leases below 2^21 keep every merged id below
// 2^53, so JSON readers hold it exactly.
const workerSpanBits = 32

// spanID maps span id of the worker holding lease into that worker's
// namespace, or returns 0 for an id that does not fit: outside input, dropped
// with what carries it.
func spanID(lease, id int64) int64 {
	if id <= 0 || id >= 1<<workerSpanBits || lease >= 1<<(53-workerSpanBits) {
		return 0
	}
	return lease<<workerSpanBits | id
}

// fileWorkerSpanLocked files the span of the attempt out reports, under the
// number the worker exported as TRACEPARENT (0: the worker has no tracer), in
// w's namespace, with parent (the run's remote.run span, 0 for a root). First
// its end stamp feeds w's skew estimate as an unmeasured sample, so spans land
// on the coordinator's timeline before any heartbeat — when the attempt was
// one of w's, queue wait and all since its lease was granted: a spool
// replay's stamp predates the grant. Callers hold co.mu, before out leaves
// w.outstanding. The attempt ended before its Outcome was received, so a
// span the estimate ends later is moved back, whole, to end at the receipt:
// the skew estimate's error is bounded only by half a round trip, and the
// run's remote.run span, which ends once an Outcome concludes the run, must
// contain it.
func (co *coordinator) fileWorkerSpanLocked(w *wstate, out *Outcome, parent int64) {
	id := spanID(w.lease, out.Span)
	if co.e.Tracer == nil || id == 0 {
		return
	}
	start, elapsed := time.Unix(0, out.StartUnixNano), time.Duration(out.Seconds*float64(time.Second))
	recv := time.Now()
	if w.outstanding[out.RunID] && recv.Sub(w.joined) >= elapsed+time.Duration(out.QueueWaitNanos) {
		w.skew.sample(start.Add(elapsed), 0, recv)
	}
	attrs := append(make([]telemetry.Attr, 0, 6), telemetry.String("run", out.RunID), telemetry.String("worker", w.name),
		telemetry.Float("queue_wait_s", time.Duration(out.QueueWaitNanos).Seconds()))
	if out.Cached {
		attrs = append(attrs, telemetry.Bool("cached", true))
	} else {
		if cpu := out.CPUUserSeconds + out.CPUSystemSeconds; cpu != 0 || out.MaxRSSBytes != 0 {
			attrs = append(attrs, telemetry.Float("cpu_s", cpu), telemetry.Int("max_rss_bytes", int(out.MaxRSSBytes)))
		}
		status := "failed"
		if out.OK {
			status = "succeeded"
		}
		attrs = append(attrs, telemetry.String("status", status))
	}
	start = w.skew.adjust(start)
	end := start.Add(elapsed)
	if end.After(recv) {
		start, end = recv.Add(-elapsed), recv
	}
	co.e.Tracer.Ingest(telemetry.SpanData{ID: id, Parent: parent, Name: workerRunSpan,
		Start: start, End: end, Attrs: attrs})
}

// handleTelemetry merges one worker batch into the coordinator's
// telemetry: span ids map into the worker's namespace of the coordinator
// tracer's ids (so a child shipped before its parent still names it),
// timestamps shift onto the coordinator's timeline by the worker's
// estimated clock skew, and everything gains worker=<name> attribution.
func (co *coordinator) handleTelemetry(w *wstate, b TelemetryBatch, recv time.Time) {
	e := co.e
	e.mTelemetryBatches.Inc()
	dropped := b.DroppedSpans + b.DroppedEvents

	co.mu.Lock()
	if b.SentUnixNano != 0 {
		w.skew.sample(time.Unix(0, b.SentUnixNano), time.Duration(b.RTTNanos), recv)
	}
	skew := w.skew
	co.mu.Unlock()

	for _, d := range b.Spans {
		parent := spanID(w.lease, d.Parent)
		if d.ID = spanID(w.lease, d.ID); d.ID == 0 || (parent == 0) != (d.Parent == 0) {
			dropped++
			continue
		}
		d.Parent, d.Start, d.End = parent, skew.adjust(d.Start), skew.adjust(d.End)
		d.Attrs = withWorker(d.Attrs, d.Attr("worker") == "", w.name)
		e.Tracer.Ingest(d)
		e.mWorkerSpans.Inc()
	}
	for _, ev := range b.Events {
		if ev.Span != 0 {
			if ev.Span = spanID(w.lease, ev.Span); ev.Span == 0 {
				dropped++
				continue
			}
		}
		ev.Time = skew.adjust(ev.Time)
		// origin=worker lets consumers that hear the coordinator's own
		// account of a worker (the monitor) skip the shipped copies instead
		// of double counting.
		ev.Attrs = withWorker(ev.Attrs, ev.Attr("worker") == "", w.name, telemetry.String("origin", "worker"))
		e.Events.Ingest(ev)
	}
	if dropped > 0 {
		e.mTelemetryDropped.Add(dropped)
	}
	if b.Metrics != nil {
		e.Metrics.Merge(*b.Metrics, "worker", w.name)
	}
}

// withWorker copies attrs, sized for what it appends: worker=<name> when add
// is set, then extra.
func withWorker(attrs []telemetry.Attr, add bool, name string, extra ...telemetry.Attr) []telemetry.Attr {
	out := make([]telemetry.Attr, len(attrs), len(attrs)+1+len(extra))
	copy(out, attrs)
	if add {
		out = append(out, telemetry.String("worker", name))
	}
	return append(out, extra...)
}

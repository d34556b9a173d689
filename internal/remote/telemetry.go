// Telemetry synchronisation for the execution plane: the worker-side
// shipper that drains local telemetry toward the coordinator in bounded
// batches, the NTP-lite per-worker clock-skew estimator, and the
// coordinator-side merge that re-keys worker spans, events and metric
// deltas into the campaign's single trace. See DESIGN.md §4h.

package remote

import (
	"sync"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// workerRunSpan names a worker's span for one run: the span the merge
// parents by its "run" attribute.
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
// best. Unmeasured samples stand in until a measured one arrives.
func (e *skewEstimator) sample(sent time.Time, rtt time.Duration, recv time.Time) {
	if sent.IsZero() {
		return
	}
	if rtt < 0 {
		rtt = 0
	}
	measured, best := rtt > 0, e.rtt > 0
	switch {
	case !e.valid:
	case measured && (!best || rtt <= e.rtt):
	case !measured && !best:
	default:
		return
	}
	e.valid, e.rtt, e.offset = true, rtt, sent.Add(rtt/2).Sub(recv)
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

// spanID maps one of w's span ids into its namespace, or returns 0 for an id
// that does not fit: outside input, dropped with what carries it.
func (w *wstate) spanID(id int64) int64 {
	if id <= 0 || id >= 1<<workerSpanBits || w.lease >= 1<<(53-workerSpanBits) {
		return 0
	}
	return w.lease<<workerSpanBits | id
}

// handleTelemetry merges one worker batch into the coordinator's
// telemetry: span ids map into the worker's namespace of the coordinator
// tracer's ids (so a child shipped before its parent still names it), a
// worker's run spans parent under the coordinator's spans for their runs,
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
	spans := make([]telemetry.SpanData, 0, len(b.Spans))
	for _, d := range b.Spans {
		if co.remapSpanLocked(w, &d, skew) {
			spans = append(spans, d)
		} else {
			dropped++
		}
	}
	co.mu.Unlock()

	events := make([]eventlog.Event, 0, len(b.Events))
	for _, ev := range b.Events {
		if ev.Span != 0 {
			if ev.Span = w.spanID(ev.Span); ev.Span == 0 {
				dropped++
				continue
			}
		}
		ev.Time = skew.adjust(ev.Time)
		// origin=worker lets consumers that already track run lifecycles
		// from Outcome reports (the monitor) skip the shipped copies instead
		// of double counting.
		attrs := make([]telemetry.Attr, len(ev.Attrs), len(ev.Attrs)+2)
		copy(attrs, ev.Attrs)
		if ev.Attr("worker") == "" {
			attrs = append(attrs, telemetry.String("worker", w.name))
		}
		ev.Attrs = append(attrs, telemetry.String("origin", "worker"))
		events = append(events, ev)
	}

	if dropped > 0 {
		e.mTelemetryDropped.Add(dropped)
	}
	for _, d := range spans {
		e.Tracer.Ingest(d)
	}
	e.mWorkerSpans.Add(int64(len(spans)))
	for _, ev := range events {
		e.Events.Ingest(ev)
	}
	if b.Metrics != nil {
		e.Metrics.Merge(*b.Metrics, "worker", w.name)
	}
}

// remapSpanLocked rewrites one worker span for the coordinator's trace —
// mapped ids, resolved parent, skew-adjusted times, worker attribution — and
// reports false when an id it carries does not fit w's namespace. A worker's
// run span parents under this coordinator's span for its "run" attribute,
// whatever its worker-local parent, and files as a root when there is no
// such span: an unknown run id, or a run this incarnation never dispatched.
// Callers hold co.mu.
func (co *coordinator) remapSpanLocked(w *wstate, d *telemetry.SpanData, skew skewEstimator) bool {
	if d.ID = w.spanID(d.ID); d.ID == 0 {
		return false
	}
	if d.Name == workerRunSpan {
		d.Parent = 0
		if i, ok := co.index[d.Attr("run")]; ok {
			d.Parent = co.state[i].Span.ID()
		}
	} else if d.Parent != 0 {
		if d.Parent = w.spanID(d.Parent); d.Parent == 0 {
			return false
		}
	}
	d.Start = skew.adjust(d.Start)
	d.End = skew.adjust(d.End)
	if d.Attr("worker") == "" {
		attrs := make([]telemetry.Attr, len(d.Attrs), len(d.Attrs)+1)
		copy(attrs, d.Attrs)
		d.Attrs = append(attrs, telemetry.String("worker", w.name))
	}
	return true
}

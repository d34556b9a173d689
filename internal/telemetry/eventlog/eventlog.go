// Package eventlog is the active half of the observability layer: a
// structured, leveled, bounded ring journal of campaign events. Where the
// telemetry package answers "how much / how long" (metrics, spans), the
// event log answers "what happened, when, and under which span": every
// record carries the span ID of the operation that emitted it, so a
// "run failed" or "job preempted" event links straight into the Perfetto
// flamegraph exported from the same process.
//
// The log is a fixed-capacity ring: when full, the oldest event is
// overwritten and a drop counter increments — an overloaded campaign
// degrades to a suffix journal instead of growing without bound. Appends
// are safe for concurrent use; every method is nil-receiver safe, so the
// logging-off path costs callers only nil checks. Timestamps come from an
// injectable Clock, so simulated executions (internal/hpcsim) journal in
// virtual time, consistent with their spans.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/telemetry"
)

// Level grades an event's severity.
type Level int8

// Severity levels, ascending.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int8(l))
	}
}

// MarshalJSON renders the level as its name.
func (l Level) MarshalJSON() ([]byte, error) { return json.Marshal(l.String()) }

// UnmarshalJSON parses a level name (unknown names decode as Info so old
// readers survive new levels).
func (l *Level) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "debug":
		*l = Debug
	case "warn":
		*l = Warn
	case "error":
		*l = Error
	default:
		*l = Info
	}
	return nil
}

// Canonical event types. Emitters across the engines share this vocabulary
// so the monitor can interpret any campaign's journal: "run" events are
// whole campaign runs (savanna), "task" events are plan tasks (tabular) —
// the monitor treats both as the campaign's unit of progress. The unit's
// identifier travels in the "run" (or "task") attribute.
const (
	CampaignStart = "campaign.start"
	CampaignDone  = "campaign.done"
	// CampaignAborted marks a graceful stop-condition abort (max failure
	// fraction exceeded): undispatched runs were skipped and the engine
	// returned a completeness report.
	CampaignAborted = "campaign.aborted"
	// CampaignStatusLog marks a failed write to the campaign directory's
	// status log: at most one per campaign for its appends (the first
	// failure) and one for its closing fsync. The campaign carries on — the
	// attempt journal is the record, the log its projection.
	CampaignStatusLog = "campaign.status-log"
	// CampaignJournal marks a campaign's first refused attempt-journal write
	// (journal closed, fenced or out of space), whichever engine runs it. The
	// campaign carries on in memory, but results the journal did not take
	// are not acknowledged: remote workers keep them spooled for a successor.
	CampaignJournal = "campaign.journal"
	// CampaignProvenance marks a campaign's first refused provenance record
	// (a duplicate record id, a record that fails validation).
	CampaignProvenance = "campaign.provenance"

	RunStart     = "run.start"
	RunSucceeded = "run.succeeded"
	RunCached    = "run.cached"
	RunFailed    = "run.failed"
	// RunKilled marks a run cut off by preemption, walltime expiry or node
	// failure — it will requeue, unlike a RunFailed run.
	RunKilled = "run.killed"
	// RunRetry marks one failed attempt that the resilience layer will
	// re-execute after backoff (attrs: attempt, class, delay_ms).
	RunRetry = "run.retry"
	// RunQuarantined marks a run terminally side-lined because its sweep
	// point kept failing — the circuit breaker's terminal event.
	RunQuarantined = "run.quarantined"
	// RunResources carries a settled run's measured cost (attrs: run, cpu_s,
	// max_rss_bytes) harvested from the kernel's rusage accounting.
	RunResources = "run.resources"

	TaskStart  = "task.start"
	TaskDone   = "task.done"
	TaskCached = "task.cached"
	TaskFailed = "task.failed"

	AllocStart = "alloc.start"
	AllocDone  = "alloc.done"

	JobQueued     = "job.queued"
	JobStarted    = "job.started"
	JobCompleted  = "job.completed"
	JobExpired    = "job.expired"
	JobBackfilled = "job.backfilled"

	NodeFailed   = "node.failed"
	NodeRepaired = "node.repaired"

	AlertFiring   = "alert.firing"
	AlertResolved = "alert.resolved"

	// Remote execution plane (internal/remote). Worker events carry the
	// "worker" attribute; dispatch/lost events carry both "run" and
	// "worker" so the monitor can roll runs-in-flight up per worker.
	WorkerJoin      = "worker.join"      // lease granted to a joining worker
	WorkerHeartbeat = "worker.heartbeat" // lease renewed (Debug level: liveness, not progress)
	WorkerDead      = "worker.dead"      // lease reclaimed; its runs re-dispatch
	WorkerLeave     = "worker.leave"     // clean departure after drain
	// WorkerRefused marks a peer turned away at its first record for speaking
	// another protocol version (attrs: peer, offered, expected).
	WorkerRefused = "worker.refused"
	// RunDispatched marks a run handed to a worker under its lease; the
	// monitor treats it as the run's start (queue wait counts toward
	// straggler detection — a run stuck behind a slow worker IS late).
	RunDispatched = "run.dispatched"
	// RunLost marks a dispatched run reclaimed from a dead worker's lease;
	// like run.killed it requeues without consuming the attempt budget.
	RunLost = "run.lost"
	// WorkSteal marks a rebalance: an idle worker triggered reclamation of
	// queued-but-unstarted runs from the busiest worker (attrs: from, to, n).
	WorkSteal = "work.steal"

	// Coordinator failover lifecycle (DESIGN.md §4j). CoordinatorEpoch marks
	// an incarnation fencing the attempt journal at a new epoch (attr:
	// epoch; a takeover when epoch > 1). CoordinatorFenced marks an
	// incarnation discovering it was deposed — lease file taken over — and
	// self-fencing. WorkerFenced marks a worker rejecting stale-epoch
	// traffic (a grant or message from a deposed coordinator);
	// WorkerSpoolReplay marks a re-handshaking worker replaying outcomes
	// finished while disconnected (attr: outcomes).
	CoordinatorEpoch  = "coordinator.epoch"
	CoordinatorFenced = "coordinator.fenced"
	WorkerFenced      = "worker.fenced"
	WorkerSpoolReplay = "worker.spool-replay"
)

// Event is one journal record. Span, when non-zero, is the trace-local ID
// of the span under which the event happened — the correlation key into the
// span dump / Chrome trace exported by the same process.
type Event struct {
	Seq   int64            `json:"seq"`
	Time  time.Time        `json:"time"`
	Level Level            `json:"level"`
	Type  string           `json:"type"`
	Msg   string           `json:"msg,omitempty"`
	Span  int64            `json:"span,omitempty"`
	Attrs []telemetry.Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent).
func (e Event) Attr(key string) string {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// DefaultCapacity bounds a log's ring buffer.
const DefaultCapacity = 16384

// Log is the bounded ring journal. A nil *Log is a valid "logging off"
// log: Append is a no-op, Enabled reports false, snapshots are empty.
type Log struct {
	minLevel atomic.Int32

	mu      sync.Mutex
	clock   telemetry.Clock
	buf     []Event
	start   int // index of the oldest event
	count   int
	nextSeq int64
	dropped int64
	// subs is copy-on-write: Subscribe replaces the slice, Append reads it
	// under mu and notifies outside it, so subscribers may append back into
	// the log (e.g. the monitor recording an alert) without deadlocking.
	subs []func(Event)

	mEvents  *telemetry.Counter
	mDropped *telemetry.Counter
}

// NewLog returns a log with DefaultCapacity, wall clock, and Info minimum
// level.
func NewLog() *Log {
	l := &Log{buf: make([]Event, DefaultCapacity)}
	l.minLevel.Store(int32(Info))
	return l
}

// SetCapacity resizes the ring (values < 1 restore the default), keeping
// the newest events that fit.
func (l *Log) SetCapacity(n int) {
	if l == nil {
		return
	}
	if n < 1 {
		n = DefaultCapacity
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n == len(l.buf) {
		return
	}
	keep := l.snapshotLocked()
	if len(keep) > n {
		keep = keep[len(keep)-n:]
	}
	l.buf = make([]Event, n)
	l.start = 0
	l.count = copy(l.buf, keep)
}

// SetClock replaces the log's time source (nil restores the wall clock).
func (l *Log) SetClock(c telemetry.Clock) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.clock = c
	l.mu.Unlock()
}

// Now returns the log's current time — nil-safe, so consumers (the monitor)
// can share the journal's clock for "time since last event" arithmetic.
func (l *Log) Now() time.Time {
	if l == nil {
		return time.Now()
	}
	l.mu.Lock()
	c := l.clock
	l.mu.Unlock()
	if c == nil {
		return time.Now()
	}
	return c.Now()
}

// SetMinLevel drops events below lv at append time.
func (l *Log) SetMinLevel(lv Level) {
	if l == nil {
		return
	}
	l.minLevel.Store(int32(lv))
}

// Enabled reports whether events at lv are journaled — a cheap gate for
// hot paths that would otherwise build attributes for a dropped event.
func (l *Log) Enabled(lv Level) bool {
	return l != nil && int32(lv) >= l.minLevel.Load()
}

// SetMetrics registers the log's self-health instruments in reg:
// telemetry.events_total (appended events) and
// telemetry.events_dropped_total (ring overwrites — non-zero means the
// journal is a suffix, not the whole campaign). A nil registry is a no-op.
func (l *Log) SetMetrics(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.mu.Lock()
	l.mEvents = reg.Counter("telemetry.events_total")
	l.mDropped = reg.Counter("telemetry.events_dropped_total")
	l.mu.Unlock()
}

// Subscribe registers fn to receive every appended event, synchronously,
// outside the log's lock. Subscribers must not block.
func (l *Log) Subscribe(fn func(Event)) {
	if l == nil || fn == nil {
		return
	}
	l.mu.Lock()
	next := make([]func(Event), len(l.subs)+1)
	copy(next, l.subs)
	next[len(l.subs)] = fn
	l.subs = next
	l.mu.Unlock()
}

// Append journals one event and returns its sequence number (0 when the
// log is nil or the level is below the minimum). span is the trace-local
// span ID the event is correlated to — pass span.ID() (nil-safe) or 0.
// The event keeps a copy of attrs, so a caller's argument list stays on
// its stack, and an event that is not journaled costs no allocation.
func (l *Log) Append(lv Level, typ, msg string, span int64, attrs ...telemetry.Attr) int64 {
	if !l.Enabled(lv) {
		return 0
	}
	return l.file(Event{Level: lv, Type: typ, Msg: msg, Span: span, Attrs: slices.Clone(attrs)})
}

// Ingest journals an event produced by another process — a worker record
// merged into the coordinator's log. It keeps the event's time, level,
// type, message, span correlation and attributes but assigns a fresh
// sequence number in this log; level gating, ring bounds, metrics and
// subscriber notification apply exactly as for Append.
func (l *Log) Ingest(ev Event) int64 {
	if !l.Enabled(ev.Level) {
		return 0
	}
	return l.file(ev)
}

// file assigns the event a sequence number (and a timestamp when it has
// none), inserts it into the ring and notifies subscribers outside the
// lock.
func (l *Log) file(ev Event) int64 {
	l.mu.Lock()
	l.nextSeq++
	ev.Seq = l.nextSeq
	if ev.Time.IsZero() {
		ev.Time = l.nowLocked()
	}
	overwrote := false
	if l.count < len(l.buf) {
		l.buf[(l.start+l.count)%len(l.buf)] = ev
		l.count++
	} else {
		l.buf[l.start] = ev
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
		overwrote = true
	}
	subs := l.subs
	mEvents, mDropped := l.mEvents, l.mDropped
	l.mu.Unlock()

	mEvents.Inc()
	if overwrote {
		mDropped.Inc()
	}
	for _, fn := range subs {
		fn(ev)
	}
	return ev.Seq
}

// nowLocked reads the clock; callers hold mu.
func (l *Log) nowLocked() time.Time {
	if l.clock == nil {
		return time.Now()
	}
	return l.clock.Now()
}

// snapshotLocked copies the ring oldest-first; callers hold mu.
func (l *Log) snapshotLocked() []Event {
	out := make([]Event, 0, l.count)
	for i := 0; i < l.count; i++ {
		out = append(out, l.buf[(l.start+i)%len(l.buf)])
	}
	return out
}

// Snapshot copies the journal's current contents, oldest first.
func (l *Log) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

// Since returns the events with sequence number > seq, oldest first, at most
// max of them (max < 1: all) — the polling cursor for a live watcher. The
// ring's sequence numbers are consecutive and end at the last one assigned,
// so the cursor's slot is found by arithmetic and only what is returned is
// copied.
func (l *Log) Since(seq int64, max int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	skip := 0
	if oldest := l.nextSeq - int64(l.count) + 1; seq >= oldest {
		skip = int(min(seq-oldest+1, int64(l.count)))
	}
	n := l.count - skip
	if max > 0 && n > max {
		n = max
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = l.buf[(l.start+skip+i)%len(l.buf)]
	}
	return out
}

// LastSeq reports the sequence number of the newest event ever journaled
// (0 before the first): what a Since cursor reads once it has caught up.
func (l *Log) LastSeq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Dropped reports events overwritten because the ring was full.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// WriteJSONL streams the journal as JSON lines — one event per line, the
// /events.jsonl wire format.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler serves the journal as /events.jsonl: the full ring by default,
// or only events after ?since=<seq> for polling watchers. The header
// X-Eventlog-Dropped carries the drop counter.
func (l *Log) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		events := l.Snapshot()
		if s := r.URL.Query().Get("since"); s != "" {
			seq, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				http.Error(w, "eventlog: bad since cursor", http.StatusBadRequest)
				return
			}
			events = l.Since(seq, 0)
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		w.Header().Set("X-Eventlog-Dropped", strconv.FormatInt(l.Dropped(), 10))
		WriteJSONL(w, events)
	})
}

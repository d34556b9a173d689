// Package monitor turns the passive telemetry signals — the metrics
// registry and the event journal — into an actionable live view of a
// running campaign: progress, throughput, an ETA from the completion rate,
// straggler detection against the median sibling duration, a stall
// watchdog, and user-defined alert rules over any metric. Alert state
// transitions (firing/resolved) are recorded back into the event log,
// correlated to the campaign span, so the operational story and the causal
// trace are one artifact.
//
// The monitor is clock-agnostic: it reads time from its configured clock,
// falling back to the event log's clock, so a campaign simulated in
// virtual time (internal/hpcsim) is monitored in virtual time — a stall is
// "no progress for 300 simulated seconds", not wall seconds.
package monitor

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
	"fairflow/internal/telemetry/history"
)

// Config shapes a Monitor.
type Config struct {
	// Campaign labels the health report.
	Campaign string
	// TotalRuns is the campaign's planned run count, used for progress and
	// ETA. Zero means unknown (learned from a campaign.start event's "runs"
	// attribute when present).
	TotalRuns int
	// StragglerFactor flags a running run as a straggler when its elapsed
	// time exceeds factor × median(completed run durations). Default 3.
	StragglerFactor float64
	// StallWindow fires the stall alert when no event progress is observed
	// for this long. Zero disables the watchdog. The window is measured on
	// the monitor's clock — virtual time under a simulation.
	StallWindow time.Duration
	// Clock overrides the time source (defaults to the event log's clock).
	Clock telemetry.Clock
	// Rules are user-defined alert predicates evaluated on every Health call.
	Rules []Rule
	// History, when set, backs rate() rules with true sliding-window rates
	// over the ring's samples instead of deltas between consecutive Health
	// evaluations (whose spacing is whatever the caller's poll loop does).
	History *history.Ring
}

// Straggler is a running run whose elapsed time dwarfs its completed
// siblings'.
type Straggler struct {
	Run            string  `json:"run"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	MedianSeconds  float64 `json:"median_seconds"`
	Factor         float64 `json:"factor"`
}

// WorkerHealth is one worker's rollup in a distributed campaign, folded
// from the coordinator's worker-lifecycle and run-dispatch events.
type WorkerHealth struct {
	Worker string `json:"worker"`
	// Live reports whether the worker currently holds a lease.
	Live  bool `json:"live"`
	Slots int  `json:"slots,omitempty"`
	// RunsInFlight counts runs dispatched to this worker with no terminal
	// outcome yet.
	RunsInFlight int `json:"runs_in_flight"`
	// Completed counts terminal outcomes this worker reported.
	Completed int `json:"completed"`
	// Lost counts runs reclaimed from this worker by lease expiry.
	Lost int `json:"lost,omitempty"`
	// LastSeenAgeSeconds is the age of the worker's last sign of life
	// (heartbeat, dispatch, result) at evaluation time.
	LastSeenAgeSeconds float64 `json:"last_seen_age_seconds,omitempty"`
}

// AlertState is the current state of one alert (built-in or rule-defined).
type AlertState struct {
	Alert     string    `json:"alert"`
	Firing    bool      `json:"firing"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Since     time.Time `json:"since,omitempty"`
}

// CampaignHealth is one evaluation of a campaign's live state.
type CampaignHealth struct {
	Campaign    string    `json:"campaign,omitempty"`
	GeneratedAt time.Time `json:"generated_at"`

	TotalRuns int `json:"total_runs,omitempty"`
	Running   int `json:"running"`
	Executed  int `json:"executed"`
	Cached    int `json:"cached"`
	Failed    int `json:"failed"`
	Killed    int `json:"killed"`
	// Retries counts failed attempts the resilience layer re-queued —
	// churn that progress counters alone hide.
	Retries int `json:"retries,omitempty"`
	// Quarantined counts runs terminally side-lined by the sweep-point
	// circuit breaker.
	Quarantined int `json:"quarantined,omitempty"`
	// Aborted is set once the campaign's stop condition trips (max failure
	// fraction); remaining runs will be skipped, so the ETA is void.
	Aborted bool `json:"aborted,omitempty"`
	// Completed counts terminal outcomes: executed + cached + failed +
	// quarantined.
	Completed int `json:"completed"`
	// Progress is Completed/TotalRuns (0 when TotalRuns is unknown).
	Progress float64 `json:"progress"`

	ThroughputPerSec float64 `json:"throughput_per_sec"`
	HasETA           bool    `json:"has_eta"`
	ETASeconds       float64 `json:"eta_seconds,omitempty"`

	MedianRunSeconds float64     `json:"median_run_seconds,omitempty"`
	Stragglers       []Straggler `json:"stragglers,omitempty"`

	Stalled      bool    `json:"stalled"`
	StallSeconds float64 `json:"stall_seconds,omitempty"`

	// WorkersLive / WorkersDead and Workers appear only for distributed
	// campaigns (remote engine coordinators emit the worker events).
	WorkersLive int            `json:"workers_live,omitempty"`
	WorkersDead int            `json:"workers_dead,omitempty"`
	Workers     []WorkerHealth `json:"workers,omitempty"`

	// Fleet aggregates the workers' merged execution histograms (queue wait
	// and execution time across every worker) — present only when worker
	// telemetry has been merged into the registry.
	Fleet *FleetHealth `json:"fleet,omitempty"`

	Alerts []AlertState `json:"alerts,omitempty"`
}

// Built-in alert names.
const (
	AlertStraggler = "straggler"
	AlertStall     = "stall"
)

// runState tracks one in-flight run.
type runState struct {
	start time.Time
	span  int64
}

// workerTrack is one worker's folded lifecycle state.
type workerTrack struct {
	live      bool
	dead      bool // died at least once and has not rejoined
	slots     int
	inFlight  int
	completed int
	lost      int
	lastSeen  time.Time
}

// alertTrack is an alert's persisted firing state between evaluations.
type alertTrack struct {
	firing bool
	since  time.Time
}

// Monitor consumes the event stream (via Subscribe) and the metrics
// registry to compute CampaignHealth on demand. Safe for concurrent use.
type Monitor struct {
	cfg Config
	reg *telemetry.Registry
	log *eventlog.Log

	mu           sync.Mutex
	sawEvent     bool
	firstEvent   time.Time
	lastProgress time.Time
	campaignSpan int64
	done         bool
	totalRuns    int
	runs         map[string]runState
	workers      map[string]*workerTrack
	runWorker    map[string]string // in-flight run → assigned worker
	durs         []float64         // completed executed durations, seconds
	executed     int
	cached       int
	failed       int
	killed       int
	retries      int
	quarantined  int
	aborted      bool
	alerts       map[string]*alertTrack
	rateLast     map[string]float64
	rateLastAt   time.Time
	rateHasBase  bool

	// dump mode: frozen metrics + rate basis from the journal's time span.
	snapOverride *telemetry.MetricsSnapshot
	dumpRateSpan float64
}

// New builds a monitor over reg and log (either may be nil) and subscribes
// to the log's event stream. Health may be called at any time.
func New(cfg Config, reg *telemetry.Registry, log *eventlog.Log) *Monitor {
	if cfg.StragglerFactor <= 0 {
		cfg.StragglerFactor = 3
	}
	m := &Monitor{
		cfg:       cfg,
		reg:       reg,
		log:       log,
		totalRuns: cfg.TotalRuns,
		runs:      map[string]runState{},
		workers:   map[string]*workerTrack{},
		runWorker: map[string]string{},
		alerts:    map[string]*alertTrack{},
		rateLast:  map[string]float64{},
	}
	log.Subscribe(m.observe)
	return m
}

// now reads the monitor's clock: config override, then the event log's
// clock, then wall time.
func (m *Monitor) now() time.Time {
	if m.cfg.Clock != nil {
		return m.cfg.Clock.Now()
	}
	return m.log.Now()
}

// minCompleted is the number of completed runs required before the median
// is trusted for straggler detection and ETA.
const minCompleted = 3

// rateWindow is the sliding window for History-backed rate() rules.
const rateWindow = 30 * time.Second

// unitID extracts the work-unit identifier from an event — savanna runs
// and tabular tasks are both units of campaign progress.
func unitID(ev eventlog.Event) string {
	if id := ev.Attr("run"); id != "" {
		return id
	}
	return ev.Attr("task")
}

// observe folds one event into the monitor's state. Self-generated alert
// events are ignored: an alert firing is not campaign progress and must
// not reset the stall watchdog.
func (m *Monitor) observe(ev eventlog.Event) {
	switch ev.Type {
	case eventlog.AlertFiring, eventlog.AlertResolved:
		return
	}
	// Worker-shipped events (merged into this log by the remote engine's
	// telemetry sync, tagged origin=worker) are a worker's own account of
	// its sessions — join, leave, fencing, spool replay — which the
	// coordinator journals itself; a run's execution is not among them: it
	// rides the run's Outcome, which the coordinator's own events report.
	// Folding them again would double count. The fleet-wide view of worker
	// execution comes from the merged metrics instead (Fleet).
	if ev.Attr("origin") == "worker" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.sawEvent {
		m.sawEvent = true
		m.firstEvent = ev.Time
	}
	m.lastProgress = ev.Time

	switch ev.Type {
	case eventlog.CampaignStart:
		m.campaignSpan = ev.Span
		m.done = false
		if m.cfg.Campaign == "" {
			if name := ev.Attr("campaign"); name != "" {
				m.cfg.Campaign = name
			} else if ev.Msg != "" {
				m.cfg.Campaign = ev.Msg
			}
		}
		if m.totalRuns == 0 {
			if n, err := strconv.Atoi(ev.Attr("runs")); err == nil {
				m.totalRuns = n
			}
		}
	case eventlog.CampaignDone:
		m.done = true
	case eventlog.RunStart, eventlog.TaskStart:
		if id := unitID(ev); id != "" {
			m.runs[id] = runState{start: ev.Time, span: ev.Span}
		}
	case eventlog.RunDispatched:
		// A dispatch is the run's start from the campaign's point of view:
		// queue wait on a slow worker counts toward straggler detection. It
		// also binds the run to a worker for the per-worker rollups.
		if id := unitID(ev); id != "" {
			m.runs[id] = runState{start: ev.Time, span: ev.Span}
			if w := ev.Attr("worker"); w != "" {
				m.dispatchLocked(id, w, ev.Time)
			}
		}
	case eventlog.RunLost:
		// A dead worker's lease was reclaimed; the run requeues without
		// consuming its attempt budget (like run.killed).
		if id := unitID(ev); id != "" {
			delete(m.runs, id)
			m.settleLocked(id, ev.Time, func(wt *workerTrack) { wt.lost++ })
		}
	case eventlog.RunSucceeded, eventlog.TaskDone:
		if id := unitID(ev); id != "" {
			if st, ok := m.runs[id]; ok {
				m.durs = append(m.durs, ev.Time.Sub(st.start).Seconds())
				delete(m.runs, id)
			}
			m.settleLocked(id, ev.Time, func(wt *workerTrack) { wt.completed++ })
		}
		m.executed++
	case eventlog.RunCached, eventlog.TaskCached:
		// Cached completions are near-instant; folding them into the
		// duration sample would drag the median to ~0 and flag every real
		// run as a straggler.
		if id := unitID(ev); id != "" {
			delete(m.runs, id)
			m.settleLocked(id, ev.Time, func(wt *workerTrack) { wt.completed++ })
		}
		m.cached++
	case eventlog.RunFailed, eventlog.TaskFailed:
		if id := unitID(ev); id != "" {
			delete(m.runs, id)
			m.settleLocked(id, ev.Time, func(wt *workerTrack) { wt.completed++ })
		}
		m.failed++
	case eventlog.RunKilled:
		// Killed runs requeue — not terminal, but no longer running.
		if id := unitID(ev); id != "" {
			delete(m.runs, id)
			m.settleLocked(id, ev.Time, nil)
		}
		m.killed++
	case eventlog.RunRetry:
		// A retry is churn, not completion: the run stays in-flight (its
		// original start time keeps accruing toward straggler detection,
		// backoff included — a run stuck in a retry loop IS a straggler).
		m.retries++
	case eventlog.RunQuarantined:
		// Quarantine is terminal: the circuit breaker side-lined the sweep
		// point, no further attempts follow.
		if id := unitID(ev); id != "" {
			delete(m.runs, id)
			m.settleLocked(id, ev.Time, func(wt *workerTrack) { wt.completed++ })
		}
		m.quarantined++
	case eventlog.CampaignAborted:
		m.aborted = true
	case eventlog.WorkerJoin:
		if name := ev.Attr("worker"); name != "" {
			wt := m.workerLocked(name)
			wt.live, wt.dead = true, false
			wt.lastSeen = ev.Time
			if n, err := strconv.Atoi(ev.Attr("slots")); err == nil {
				wt.slots = n
			}
		}
	case eventlog.WorkerHeartbeat:
		if name := ev.Attr("worker"); name != "" {
			m.workerLocked(name).lastSeen = ev.Time
		}
	case eventlog.WorkerDead:
		if name := ev.Attr("worker"); name != "" {
			wt := m.workerLocked(name)
			wt.live, wt.dead = false, true
		}
	case eventlog.WorkerLeave:
		// Clean departure after drain — gone, but not a failure.
		if name := ev.Attr("worker"); name != "" {
			m.workerLocked(name).live = false
		}
	}
}

// workerLocked returns (creating if needed) the rollup for one worker.
func (m *Monitor) workerLocked(name string) *workerTrack {
	wt := m.workers[name]
	if wt == nil {
		wt = &workerTrack{}
		m.workers[name] = wt
	}
	return wt
}

// dispatchLocked binds an in-flight run to the worker it was handed to.
// Re-dispatch after a lease expiry moves the binding; the old worker's
// in-flight count was already settled by the run.lost event.
func (m *Monitor) dispatchLocked(id, worker string, at time.Time) {
	if prev, ok := m.runWorker[id]; ok {
		if prev == worker {
			m.workerLocked(worker).lastSeen = at
			return
		}
		if wt := m.workers[prev]; wt != nil && wt.inFlight > 0 {
			wt.inFlight--
		}
	}
	m.runWorker[id] = worker
	wt := m.workerLocked(worker)
	wt.inFlight++
	wt.lastSeen = at
}

// settleLocked clears a run's worker binding when it stops being in
// flight; outcome (may be nil) folds the result into the worker's tally.
func (m *Monitor) settleLocked(id string, at time.Time, outcome func(*workerTrack)) {
	worker, ok := m.runWorker[id]
	if !ok {
		return
	}
	delete(m.runWorker, id)
	wt := m.workerLocked(worker)
	if wt.inFlight > 0 {
		wt.inFlight--
	}
	wt.lastSeen = at
	if outcome != nil {
		outcome(wt)
	}
}

// snapshot reads the metrics the alert rules evaluate over.
func (m *Monitor) snapshot() telemetry.MetricsSnapshot {
	if m.snapOverride != nil {
		return *m.snapOverride
	}
	return m.reg.Snapshot()
}

// median of a sample (0 when empty). Sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// alertEvent is a pending firing/resolved journal record.
type alertEvent struct {
	firing bool
	state  AlertState
}

// Health evaluates the campaign's current state. Alert transitions since
// the previous evaluation are appended to the event log (correlated to the
// campaign span) before the report is returned.
func (m *Monitor) Health() CampaignHealth {
	now := m.now()
	snap := m.snapshot()

	m.mu.Lock()
	h := CampaignHealth{
		Campaign:    m.cfg.Campaign,
		GeneratedAt: now,
		TotalRuns:   m.totalRuns,
		Running:     len(m.runs),
		Executed:    m.executed,
		Cached:      m.cached,
		Failed:      m.failed,
		Killed:      m.killed,
		Retries:     m.retries,
		Quarantined: m.quarantined,
		Aborted:     m.aborted,
	}
	h.Completed = h.Executed + h.Cached + h.Failed + h.Quarantined
	if h.TotalRuns > 0 {
		h.Progress = float64(h.Completed) / float64(h.TotalRuns)
	}

	// Throughput and ETA from the completion rate since the first event.
	if m.sawEvent {
		if elapsed := now.Sub(m.firstEvent).Seconds(); elapsed > 0 && h.Completed > 0 {
			h.ThroughputPerSec = float64(h.Completed) / elapsed
		}
	}
	if remaining := h.TotalRuns - h.Completed; h.TotalRuns > 0 && !h.Aborted && h.Completed >= minCompleted && h.ThroughputPerSec > 0 {
		if remaining > 0 {
			h.HasETA = true
			h.ETASeconds = float64(remaining) / h.ThroughputPerSec
		} else {
			h.HasETA = true // done: ETA zero
		}
	}

	// Straggler detection: running runs measured against the median of
	// completed executed siblings. Needs a trustworthy sample.
	h.MedianRunSeconds = median(m.durs)
	if len(m.durs) >= minCompleted && h.MedianRunSeconds > 0 {
		for id, st := range m.runs {
			elapsed := now.Sub(st.start).Seconds()
			if elapsed > m.cfg.StragglerFactor*h.MedianRunSeconds {
				h.Stragglers = append(h.Stragglers, Straggler{
					Run:            id,
					ElapsedSeconds: elapsed,
					MedianSeconds:  h.MedianRunSeconds,
					Factor:         elapsed / h.MedianRunSeconds,
				})
			}
		}
		sort.Slice(h.Stragglers, func(i, j int) bool {
			return h.Stragglers[i].Run < h.Stragglers[j].Run
		})
	}

	// Per-worker rollups (distributed campaigns only): sorted by name so
	// the report is deterministic.
	if len(m.workers) > 0 {
		names := make([]string, 0, len(m.workers))
		for name := range m.workers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			wt := m.workers[name]
			wh := WorkerHealth{
				Worker:       name,
				Live:         wt.live,
				Slots:        wt.slots,
				RunsInFlight: wt.inFlight,
				Completed:    wt.completed,
				Lost:         wt.lost,
			}
			if !wt.lastSeen.IsZero() {
				if age := now.Sub(wt.lastSeen).Seconds(); age > 0 {
					wh.LastSeenAgeSeconds = age
				}
			}
			if wt.live {
				h.WorkersLive++
			} else if wt.dead {
				h.WorkersDead++
			}
			h.Workers = append(h.Workers, wh)
		}
	}

	h.Fleet = fleetFromSnapshot(snap)

	// Stall watchdog: no event progress inside the window. Never alarms
	// before the first event or after the campaign finished.
	if m.cfg.StallWindow > 0 && m.sawEvent && !m.done {
		if idle := now.Sub(m.lastProgress); idle >= m.cfg.StallWindow {
			h.Stalled = true
			h.StallSeconds = idle.Seconds()
		}
	}

	// Alerts: the two built-ins plus the configured rules, each folded
	// through its previous firing state to find transitions.
	var pending []alertEvent
	record := func(name string, firing bool, value, threshold float64) {
		st := m.alerts[name]
		if st == nil {
			st = &alertTrack{}
			m.alerts[name] = st
		}
		if firing && !st.firing {
			st.firing = true
			st.since = now
			pending = append(pending, alertEvent{true, AlertState{Alert: name, Firing: true, Value: value, Threshold: threshold, Since: now}})
		} else if !firing && st.firing {
			st.firing = false
			pending = append(pending, alertEvent{false, AlertState{Alert: name, Firing: false, Value: value, Threshold: threshold, Since: now}})
			st.since = time.Time{}
		}
		as := AlertState{Alert: name, Firing: st.firing, Value: value, Threshold: threshold, Since: st.since}
		h.Alerts = append(h.Alerts, as)
	}

	record(AlertStraggler, len(h.Stragglers) > 0, float64(len(h.Stragglers)), 0)
	record(AlertStall, h.Stalled, h.StallSeconds, m.cfg.StallWindow.Seconds())

	for _, r := range m.cfg.Rules {
		value, ok := m.evalRuleLocked(r, snap, now)
		firing := ok && r.exceeded(value)
		record(r.Name, firing, value, r.Threshold)
	}
	if len(m.cfg.Rules) > 0 && m.snapOverride == nil {
		m.rateLastAt = now
		m.rateHasBase = true
	}
	campaignSpan := m.campaignSpan
	m.mu.Unlock()

	// Journal the transitions outside the lock: Append notifies
	// subscribers (including this monitor's observe) synchronously.
	for _, p := range pending {
		typ, lv := eventlog.AlertResolved, eventlog.Info
		if p.firing {
			typ, lv = eventlog.AlertFiring, eventlog.Warn
		}
		m.log.Append(lv, typ, p.state.Alert, campaignSpan,
			telemetry.String("alert", p.state.Alert),
			telemetry.Float("value", p.state.Value),
			telemetry.Float("threshold", p.state.Threshold))
	}
	return h
}

// Handler serves the current health report as /health.json.
func (m *Monitor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(m.Health())
	})
}

// FromDump evaluates campaign health post-hoc from a dump file: the
// journal is replayed through the same state machine, rule rates are
// computed over the journal's time span, and the report is generated as of
// the final event. No events are emitted.
func FromDump(d eventlog.Dump, cfg Config) CampaignHealth {
	m := New(cfg, nil, nil)
	m.snapOverride = &d.Metrics
	var last time.Time
	for _, ev := range d.Events {
		m.observe(ev)
		last = ev.Time
	}
	if m.sawEvent {
		m.dumpRateSpan = last.Sub(m.firstEvent).Seconds()
		m.cfg.Clock = telemetry.ClockFunc(func() time.Time { return last })
	}
	return m.Health()
}

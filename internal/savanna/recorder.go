package savanna

import (
	"sync"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Group is what one decision of an engine makes durable: attempt-journal
// records, status-log lines, provenance records, and callbacks to run once
// they are written. An engine fills one while it decides — a coordinator
// under its lock, a local worker between two steps of a run — and hands it to
// Recorder.Post, which empties it for reuse. A group is written whole or not
// at all: it never straddles two batches.
type Group struct {
	journal []resilience.AttemptRecord
	status  []cheetah.StatusLine
	prov    []provenance.Record
	dones   []func(ok bool)
}

// Journal adds an attempt record (resilience.Controller.Record builds it, so
// it carries the time of the decision, not of the write).
func (g *Group) Journal(rec resilience.AttemptRecord) { g.journal = append(g.journal, rec) }

// Status adds a status-log line.
func (g *Group) Status(run string, status cheetah.RunStatus) {
	g.status = append(g.status, cheetah.StatusLine{Run: run, Status: status})
}

// Provenance adds a provenance record.
func (g *Group) Provenance(rec provenance.Record) { g.prov = append(g.prov, rec) }

// Done adds a callback, called after the batch holding the group is written:
// with false when the journal refused that batch. The remote coordinator
// releases a result's ack from it.
func (g *Group) Done(fn func(ok bool)) { g.dones = append(g.dones, fn) }

func (g *Group) empty() bool {
	return len(g.journal)+len(g.status)+len(g.prov)+len(g.dones) == 0
}

// reset empties g, keeping its capacity but none of what its entries hold.
func (g *Group) reset() {
	clear(g.prov)
	clear(g.dones)
	g.journal, g.status, g.prov, g.dones = g.journal[:0], g.status[:0], g.prov[:0], g.dones[:0]
}

// RecorderStage names a point in a batch at which RecorderConfig.Probe runs:
// before the journal write, between it and the status write, and after every
// write but before the callbacks.
type RecorderStage int

const (
	BeforeJournal RecorderStage = iota
	BeforeStatus
	BeforeDone
)

// RecorderConfig is what an engine opens its campaign's recorder with: the
// sinks it was configured with (any may be zero) and where errors are said.
type RecorderConfig struct {
	// Engine labels the recorder's instruments: "local", "sim" or "remote".
	Engine string
	// Campaign and Span attribute the recorder's events.
	Campaign string
	Span     int64
	// Journal is the attempt journal, Dir the campaign directory whose
	// status log is kept, Prov the provenance store.
	Journal *resilience.Journal
	Dir     string
	Prov    *provenance.Store
	Events  *eventlog.Log
	Metrics *telemetry.Registry
	// Probe is the tests' seam. The recorder goroutine calls it at each
	// stage of each batch with the batch's journal records; returning true
	// abandons the recorder on the spot — nothing further is written, no
	// callback runs, later posts are dropped — which is what a SIGKILL at
	// that point does to the process.
	Probe func(stage RecorderStage, journal []resilience.AttemptRecord) (abandon bool)
}

// Recorder is the one place a campaign's durable records are written. The
// engine decides — first terminal outcome wins, retry, quarantine, top-up —
// and posts what the decision must leave behind; one long-lived goroutine
// takes everything queued and writes it in a fixed order: the journal lines
// with one write(2) (plus the journal's auto-sync fsync when the batch
// crosses its stride), then the status lines with one write(2), then the
// provenance records, then the groups' callbacks. So status.log never calls a
// run finished before the journal does, and an ack is released only after
// the journal took the result; a batch the journal refuses (fenced, closed,
// out of space) writes no status line and its callbacks hear false. Post
// never blocks and the goroutine never waits for more: a lone record on an
// idle recorder is written at once, batching appears only under a backlog.
//
// A record is in the page cache once its batch's write returns, no longer
// when the engine's call returns: a SIGKILL loses at most the queue. Those
// runs are owed again — never acknowledged (coordinator), re-run or found in
// the memo (savanna run) — and never reported finished.
//
// The queue needs no bound of its own because the engines bound it: a
// coordinator posts one group per message it handles, holding at most
// BatchSize dispatched records per worker; LocalEngine has at most Workers
// runs in flight, each posting a few records; SimEngine is one goroutine.
//
// Write failures are said here, once per campaign and kind — campaign.journal
// (Error), campaign.status-log and campaign.provenance (Warn) — and counted
// per record; the campaign carries on.
type Recorder struct {
	cfg    RecorderConfig
	status *cheetah.StatusLog

	mRecords, mBatches, mFsyncs *telemetry.Counter
	mJournalErrs, mProvErrs     *telemetry.Counter
	hBatchSecs                  *telemetry.Histogram

	mu     sync.Mutex
	wake   *sync.Cond
	queue  Group
	closed bool          // write what is queued, then stop; posts are dropped
	exited chan struct{} // closed when the goroutine has returned

	// Owned by the goroutine, and by Close once it has exited.
	abandoned                            bool  // by Probe: the files are left as they are
	syncs                                int64 // journal fsyncs already counted
	journalFailed, statusFailed, provBad bool
}

// OpenRecorder opens cfg's sinks and starts the recorder goroutine; Close
// stops it. A status log that cannot be opened costs a Warn event and is
// done without.
func OpenRecorder(cfg RecorderConfig) *Recorder {
	label := []string{"engine", cfg.Engine}
	r := &Recorder{cfg: cfg, exited: make(chan struct{}), syncs: cfg.Journal.Syncs(),
		mRecords:     cfg.Metrics.Counter("campaign.recorder_records_total", label...),
		mBatches:     cfg.Metrics.Counter("campaign.recorder_batches_total", label...),
		mFsyncs:      cfg.Metrics.Counter("campaign.journal_fsyncs_total", label...),
		mJournalErrs: cfg.Metrics.Counter("campaign.journal_append_errors_total", label...),
		mProvErrs:    cfg.Metrics.Counter("campaign.provenance_append_errors_total", label...),
		hBatchSecs:   cfg.Metrics.Histogram("campaign.recorder_batch_seconds", nil, label...)}
	r.wake = sync.NewCond(&r.mu)
	if cfg.Dir != "" {
		var err error
		if r.status, err = cheetah.OpenStatusLog(cfg.Dir); err != nil {
			r.event(eventlog.Warn, eventlog.CampaignStatusLog, err, time.Time{})
		}
	}
	go r.loop()
	return r
}

// Post queues g for the next batch and empties it. It returns at once; the
// records of a sink the campaign does not have are dropped here.
func (r *Recorder) Post(g *Group) {
	if r.cfg.Journal == nil {
		g.journal = g.journal[:0]
	}
	if r.status == nil {
		g.status = g.status[:0]
	}
	if r.cfg.Prov == nil {
		g.prov = g.prov[:0]
	}
	if g.empty() {
		return
	}
	r.mu.Lock()
	if q := &r.queue; !r.closed {
		q.journal = append(q.journal, g.journal...)
		q.status = append(q.status, g.status...)
		q.prov = append(q.prov, g.prov...)
		q.dones = append(q.dones, g.dones...)
		r.wake.Signal()
	}
	r.mu.Unlock()
	g.reset()
}

// loop is the recorder goroutine: take the queue, write it, repeat until
// Close finds the queue empty or the probe abandons a batch.
func (r *Recorder) loop() {
	defer close(r.exited)
	var b Group
	for !r.abandoned {
		b.reset()
		r.mu.Lock()
		for r.queue.empty() && !r.closed {
			r.wake.Wait()
		}
		if r.queue.empty() {
			r.mu.Unlock()
			return
		}
		b, r.queue = r.queue, b
		r.mu.Unlock()
		if r.abandoned = r.write(&b); r.abandoned {
			r.mu.Lock()
			r.closed = true
			r.mu.Unlock()
		}
	}
}

// write puts one batch through the sinks in order and reports whether the
// probe abandoned the recorder part-way.
func (r *Recorder) write(b *Group) (abandoned bool) {
	start := time.Now()
	probe := func(stage RecorderStage) bool { return r.cfg.Probe != nil && r.cfg.Probe(stage, b.journal) }
	if probe(BeforeJournal) {
		return true
	}
	err := r.cfg.Journal.Append(b.journal...)
	if err != nil {
		r.journalError(err, b.journal)
	}
	r.countFsyncs()
	if probe(BeforeStatus) {
		return true
	}
	if err == nil && len(b.status) > 0 {
		if serr := r.status.Set(b.status...); serr != nil && !r.statusFailed {
			r.statusFailed = true
			r.event(eventlog.Warn, eventlog.CampaignStatusLog, serr, time.Now())
		}
	}
	for i := range b.prov {
		if perr := r.cfg.Prov.Append(b.prov[i]); perr != nil {
			r.mProvErrs.Inc()
			if !r.provBad {
				r.provBad = true
				r.event(eventlog.Warn, eventlog.CampaignProvenance, perr, b.prov[i].End,
					telemetry.String("campaign", r.cfg.Campaign))
			}
		}
	}
	if probe(BeforeDone) {
		return true
	}
	for _, done := range b.dones {
		done(err == nil)
	}
	r.mRecords.Add(int64(len(b.journal)))
	r.mBatches.Inc()
	r.hBatchSecs.Observe(time.Since(start).Seconds())
	return false
}

// journalError counts the records the journal refused and raises the
// campaign's one campaign.journal event, naming the first refused run.
func (r *Recorder) journalError(err error, refused []resilience.AttemptRecord) {
	r.mJournalErrs.Add(int64(len(refused)))
	if r.journalFailed {
		return
	}
	r.journalFailed = true
	first := resilience.AttemptRecord{} // Close's fsync refuses no record
	if len(refused) > 0 {
		first = refused[0]
	}
	r.event(eventlog.Error, eventlog.CampaignJournal, err, first.Time,
		telemetry.String("campaign", r.cfg.Campaign), telemetry.String("run", first.Run))
}

// event says one failure in the campaign's event log, stamped at — the time
// of the decision whose record was refused. The recorder goroutine must not
// read the log's own clock: SimEngine points it at a simulation only the
// engine's goroutine may look at. (The zero time does read it; only Open and
// Close, on the engine's goroutine, pass it.)
func (r *Recorder) event(level eventlog.Level, typ string, err error, at time.Time, attrs ...telemetry.Attr) {
	r.cfg.Events.Ingest(eventlog.Event{Time: at, Level: level, Type: typ, Msg: err.Error(), Span: r.cfg.Span, Attrs: attrs})
}

// countFsyncs moves the journal's fsyncs since the last look into the
// counter.
func (r *Recorder) countFsyncs() {
	n := r.cfg.Journal.Syncs()
	r.mFsyncs.Add(n - r.syncs)
	r.syncs = n
}

// Flush returns once everything posted before the call is written and its
// callbacks have run (or the recorder has stopped).
func (r *Recorder) Flush() {
	written := make(chan struct{})
	var g Group
	g.Done(func(bool) { close(written) })
	r.Post(&g)
	select {
	case <-written:
	case <-r.exited:
	}
}

// Close writes what is queued, stops the goroutine, and makes both files
// durable: the status log is fsynced and released, the journal fsynced (it
// stays the caller's to close). Posts after Close are dropped.
func (r *Recorder) Close() {
	r.mu.Lock()
	r.closed = true
	r.wake.Signal()
	r.mu.Unlock()
	<-r.exited
	if r.abandoned {
		return
	}
	if r.status != nil {
		if err := r.status.Close(); err != nil {
			r.event(eventlog.Warn, eventlog.CampaignStatusLog, err, time.Time{})
		}
	}
	if err := r.cfg.Journal.Sync(); err != nil {
		r.journalError(err, nil)
	}
	r.countFsyncs()
}

package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Engine is the RemoteEngine: the third Savanna engine, executing a
// campaign across worker processes instead of in-process goroutines
// (LocalEngine) or virtual time (SimEngine). It implements the same
// contract — RunCampaign returning per-run results and a completeness
// report, every run decided by a savanna.Lifecycle — but dispatch crosses the
// stream transport: workers join over TCP, hold heartbeat-renewed leases,
// receive batched run assignments, and report outcomes carrying output
// digests. The engine owns all campaign state; workers are stateless
// executors, so any of them can die (lease expiry re-dispatches their runs)
// and new ones can join mid-campaign.
type Engine struct {
	// Listener is the bound control listener (callers bind ":0" to learn
	// the port before starting the campaign). RunCampaign closes it.
	Listener net.Listener
	// BatchSize is the most runs a worker holds at once (default 32): the
	// first assignment fills it, then each result tops the worker up by one
	// run, and the connection's writer merges top-ups queued together into
	// one assign on the wire.
	BatchSize int
	// LeaseTTL bounds worker silence: a worker that misses heartbeats for
	// this long is declared dead and its runs re-dispatch (default 10s).
	LeaseTTL time.Duration
	// WorkerWait aborts the campaign after this long with work remaining
	// and no live worker — covering both "no worker ever joined" and
	// "every worker died and none returned" (default 60s).
	WorkerWait time.Duration
	// Epoch is this coordinator incarnation's fenced journal epoch
	// (resilience.Journal.OpenEpoch). It stamps every outgoing message and
	// the lease grant; workers reject traffic from lower epochs. 0 (the
	// default for journal-less engines) disables fencing. Coordinate sets
	// it; set it manually only when driving RunCampaign directly against a
	// shared journal.
	Epoch int64

	// Prov, CampaignDir, Resilience, Memo, Tracer, Metrics and Events carry
	// the LocalEngine contract unchanged; see savanna.LocalEngine.
	Prov        *provenance.Store
	CampaignDir string
	Resilience  *resilience.Config
	// Memo short-circuits runs already satisfied by the action cache before
	// they are ever dispatched; its ComponentDigest and InputDigests are
	// also advertised to workers in the lease grant so worker-side memo
	// recipes agree with the coordinator's.
	Memo    *savanna.Memo
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
	Events  *eventlog.Log

	attempt int64 // provenance record numbering
	// probe is the recorder's test seam (savanna.RecorderConfig.Probe);
	// finished, the coordinator's: it sees each campaign's state at its end.
	probe    func(savanna.RecorderStage, []resilience.AttemptRecord) bool
	finished func(*coordinator)

	telOnce sync.Once
	// tel is what the lifecycle updates: remote.runs_completed_total /
	// runs_cached_total / runs_failed_total / retries_total /
	// quarantined_total and the run_seconds, run_attempts, run_cpu_seconds,
	// run_max_rss_bytes histograms.
	tel                                           savanna.Instruments
	mDispatched, mLost, mDuplicates, mLeases      *telemetry.Counter
	mHeartbeats, mSteals, mStolenRuns, mDeadTotal *telemetry.Counter
	mStaleEpoch, mTakeovers                       *telemetry.Counter
	gEpoch, gLive, gDead                          *telemetry.Gauge

	// Fleet-telemetry instruments: heartbeat round trips (the skew
	// estimator's input), merged telemetry batches and spans, and telemetry
	// the fleet lost to bounded buffers (dropping is allowed, silence is
	// not).
	hHeartbeatRTT     *telemetry.Histogram
	mTelemetryBatches *telemetry.Counter
	mWorkerSpans      *telemetry.Counter
	mTelemetryDropped *telemetry.Counter
	// mProtocolMismatch counts peers refused for speaking another schema.
	mProtocolMismatch *telemetry.Counter
}

func (e *Engine) telemetryInit() {
	e.telOnce.Do(func() {
		e.tel = savanna.NewInstruments(e.Metrics, "remote", "runs_completed_total")
		e.mDispatched = e.Metrics.Counter("remote.runs_dispatched_total")
		e.mLost = e.Metrics.Counter("remote.runs_lost_total")
		e.mDuplicates = e.Metrics.Counter("remote.runs_duplicate_total")
		e.mLeases = e.Metrics.Counter("remote.leases_granted_total")
		e.mHeartbeats = e.Metrics.Counter("remote.heartbeats_total")
		e.mSteals = e.Metrics.Counter("remote.steals_total")
		e.mStolenRuns = e.Metrics.Counter("remote.stolen_runs_total")
		e.mDeadTotal = e.Metrics.Counter("remote.workers_dead_total")
		e.mStaleEpoch = e.Metrics.Counter("remote.stale_epoch_total")
		e.mTakeovers = e.Metrics.Counter("remote.coordinator_takeovers_total")
		e.gEpoch = e.Metrics.Gauge("remote.coordinator_epoch")
		e.gLive = e.Metrics.Gauge("remote.workers_live")
		e.gDead = e.Metrics.Gauge("remote.workers_dead")
		e.hHeartbeatRTT = e.Metrics.Histogram("remote.heartbeat_rtt_seconds", nil)
		e.mTelemetryBatches = e.Metrics.Counter("remote.telemetry_batches_total")
		e.mWorkerSpans = e.Metrics.Counter("remote.telemetry_spans_total")
		e.mTelemetryDropped = e.Metrics.Counter("remote.telemetry_dropped_total")
		e.mProtocolMismatch = e.Metrics.Counter("remote.protocol_mismatch_total")
	})
}

func (e *Engine) validate() error {
	if e.Listener == nil {
		return fmt.Errorf("remote: engine needs a Listener")
	}
	return e.Memo.Validate()
}

// orDefault resolves a tunable: v when set (positive), def otherwise.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

func (e *Engine) batchSize() int            { return orDefault(e.BatchSize, 32) }
func (e *Engine) leaseTTL() time.Duration   { return orDefault(e.LeaseTTL, 10*time.Second) }
func (e *Engine) workerWait() time.Duration { return orDefault(e.WorkerWait, 60*time.Second) }

// ioTimeout bounds each flush of a connection's writer and each idle
// connection read: two lease TTLs and 2s, so heartbeats keep healthy
// connections warm while a worker that stops reading is ended by it.
func (e *Engine) ioTimeout() time.Duration { return 2*e.leaseTTL() + 2*time.Second }

// wstate is one connected worker as the coordinator sees it, and the one
// record of its lease: the id the join granted (unique within the campaign)
// and the deadline its heartbeats push, both under co.mu.
type wstate struct {
	name    string
	c       *conn
	lease   int64
	expires time.Time
	joined  time.Time // when the lease was granted
	// outstanding holds the slots of the runs assigned to this worker with no
	// terminal outcome yet (the lease-expiry re-dispatch set).
	outstanding  map[int]bool
	stealPending bool
	dead         bool
	slots        int
	// skew is this worker's clock-offset estimate (under co.mu).
	skew skewEstimator
}

// coordinator is one campaign's live dispatch state.
type coordinator struct {
	e *Engine
	// lc decides what happens to every run; the coordinator decides where and
	// when (which worker, which order, which critical section) and tells it
	// what the wire reported.
	lc   savanna.Lifecycle
	span *telemetry.Span
	ctx  context.Context
	// rec writes what the coordinator decides: journal records, status
	// lines (a successor incarnation appends to the same files), provenance
	// — and then releases the acks.
	rec *savanna.Recorder

	mu sync.Mutex
	// group collects what the critical section in progress must make
	// durable; unlock posts it to rec whole, so a result's records, the
	// top-up's dispatches and its ack are written — or refused — together.
	group savanna.Group
	// A run's slot is its index in runs, state (its lifecycle state, begun
	// on first use by st) and results (where that state writes its result).
	// index finds a slot by run id when an outcome's slot does not (slotOf).
	runs    []cheetah.Run
	state   []savanna.RunState
	results []savanna.RunResult
	index   map[string]int
	// The queue of runs owed a placement: runs[next:], never queued, then
	// pending, the runs taken back or owed another attempt.
	next    int
	pending []int
	workers map[string]*wstate
	// dead counts the workers that died with no later join to replace
	// them: the remote.workers_dead gauge. leaseSeq numbers the leases.
	dead      int
	leaseSeq  int64
	remaining int
	draining  bool
	nameSeq   int
	zeroSince time.Time // when the live-worker count last hit zero with work remaining
	// byHunger is assignAllLocked's scratch: the workers in top-up order.
	byHunger []*wstate

	doneOnce sync.Once
	doneCh   chan struct{}
	wg       sync.WaitGroup
}

// RunCampaign executes the campaign across remote workers. The context
// cancels the campaign: pending and outstanding runs journal as skipped,
// workers are drained (their in-flight runs are cancelled), and the
// completeness report accounts for every run.
func (e *Engine) RunCampaign(ctx context.Context, campaign string, runs []cheetah.Run) ([]savanna.RunResult, resilience.CompletenessReport, error) {
	if err := e.validate(); err != nil {
		return nil, resilience.CompletenessReport{}, err
	}
	e.telemetryInit()
	rc := e.Resilience.Controller()

	ln := e.Listener
	defer ln.Close()

	e.gEpoch.Set(float64(e.Epoch))
	ctx, span := e.Tracer.Start(ctx, "remote.campaign",
		telemetry.String("campaign", campaign),
		telemetry.String("discipline", "distributed"),
		telemetry.Int("runs", len(runs)))
	e.Events.Append(eventlog.Info, eventlog.CampaignStart, campaign, span.ID(),
		telemetry.String("campaign", campaign), telemetry.Int("runs", len(runs)))

	co := &coordinator{
		e: e, span: span, ctx: ctx,
		lc: savanna.Lifecycle{Campaign: campaign, Span: span.ID(), Controller: rc,
			Memo: e.Memo, Requeues: true, Events: e.Events, Metrics: e.tel},
		rec: savanna.OpenRecorder(savanna.RecorderConfig{Engine: "remote", Campaign: campaign, Span: span.ID(),
			Journal: rc.Journal(), Dir: e.CampaignDir, Prov: e.Prov, Events: e.Events, Metrics: e.Metrics, Probe: e.probe}),
		runs:    runs,
		state:   make([]savanna.RunState, len(runs)),
		results: make([]savanna.RunResult, len(runs)),
		workers: map[string]*wstate{},
		doneCh:  make(chan struct{}),
	}
	if e.Prov != nil {
		co.lc.Seq = &e.attempt
	}
	co.remaining = len(runs)

	// Memo short-circuit: runs whose recipe is already cached never reach
	// the wire — the action cache is the cross-machine dedup line.
	co.mu.Lock()
	for i := range runs {
		if res, ok := e.Memo.Lookup(runs[i]); ok {
			co.lc.Cached(co.run(i), &co.group, "", savanna.OutputDigests(res), 0)
			co.decidedLocked(i, "", true)
		}
	}
	co.checkDoneLocked()
	if co.remaining > 0 {
		co.zeroSince = time.Now()
	}
	co.unlock()

	// Accept loop, lease reaper, cancellation watcher.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			co.wg.Add(1)
			go func() {
				defer co.wg.Done()
				co.handleConn(nc)
			}()
		}
	}()
	reapStop := make(chan struct{})
	go co.reapLoop(reapStop)
	cancelStop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			co.cancelCampaign("campaign cancelled")
		case <-cancelStop:
		}
	}()

	<-co.doneCh
	close(cancelStop)
	close(reapStop)

	// Drain: tell every worker the campaign is over, stop accepting, and
	// give handlers a moment to observe the clean close before forcing it.
	co.mu.Lock()
	co.draining = true
	workers := make([]*wstate, 0, len(co.workers))
	for _, w := range co.workers {
		workers = append(workers, w)
	}
	co.unlock()
	// The critical section that finished the campaign posted its group
	// before it unlocked, so the flush covers it: every ack owed so far is
	// queued on its connection before the drain — a drained worker's spool
	// is empty.
	co.rec.Flush()
	for _, w := range workers {
		w.c.post(OpDrain, w.name, w.lease, nil)
	}
	ln.Close()
	<-acceptDone
	waitTimeout(&co.wg, 2*time.Second)
	for _, w := range workers {
		w.c.close()
	}
	co.wg.Wait()

	// Every handler has returned, so nothing posts any more: late duplicates
	// that arrived after the drain were still journaled and acked above.
	report := co.lc.Finish(co.rec, span, len(runs))
	if e.finished != nil {
		e.finished(co)
	}
	return co.results, report, nil
}

// unlock ends a critical section: what it decided goes to the recorder as
// one group, then the lock is released — so groups are queued in the order
// their decisions were made.
func (co *coordinator) unlock() {
	co.rec.Post(&co.group)
	co.mu.Unlock()
}

// waitTimeout waits for wg up to d.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(d):
	}
}

// reapLoop expires silent leases: every quarter-TTL it reclaims leases
// past their deadline (re-dispatching their runs) and aborts the campaign
// if no live worker has shown up inside WorkerWait.
func (co *coordinator) reapLoop(stop <-chan struct{}) {
	t := time.NewTicker(max(co.e.leaseTTL()/4, 5*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		co.mu.Lock()
		var expired []*wstate
		now := time.Now()
		for _, w := range co.workers {
			if now.After(w.expires) {
				expired = append(expired, w)
			}
		}
		starved := co.remaining > 0 && len(co.workers) == 0 &&
			!co.zeroSince.IsZero() && time.Since(co.zeroSince) > co.e.workerWait()
		co.mu.Unlock()
		for _, w := range expired {
			co.workerDead(w, "lease expired: missed heartbeats")
		}
		if starved {
			co.cancelCampaign(fmt.Sprintf("no live workers for %s", co.e.workerWait()))
		}
	}
}

// cancelCampaign aborts: every non-terminal run journals skipped and the
// campaign unblocks. Workers are drained by the main loop.
func (co *coordinator) cancelCampaign(reason string) {
	co.lc.Controller.Abort(reason)
	co.mu.Lock()
	defer co.unlock()
	for i := range co.state {
		co.dropLocked(i)
	}
	co.checkDoneLocked()
}

// handleConn speaks the worker protocol on one connection.
func (co *coordinator) handleConn(nc net.Conn) {
	e := co.e
	c, err := newConn(nc, e.ioTimeout(), e.Metrics, "remote")
	if err != nil {
		nc.Close()
		return
	}
	c.epoch.Store(e.Epoch)
	m, err := c.recv(10 * time.Second)
	var mismatch *schemaMismatch
	if errors.As(err, &mismatch) {
		// Another protocol version (or not this protocol at all). Refused, and
		// said so on both sides: an event and a count here, and one bodyless
		// record back, whose stream header names this side's schema — the
		// peer's own schema check then fails naming both.
		e.mProtocolMismatch.Inc()
		e.Events.Append(eventlog.Warn, eventlog.WorkerRefused, err.Error(), co.span.ID(),
			telemetry.String("peer", nc.RemoteAddr().String()),
			telemetry.String("offered", mismatch.offered), telemetry.String("expected", msgSchema.Name))
		c.post(OpDrain, "", 0, nil)
		c.shut()
		return
	}
	if err != nil || m.Op != OpHello {
		c.close()
		return
	}
	hello, err := decodeBody[Hello](m)
	if err != nil {
		c.close()
		return
	}
	hello.Slots = max(hello.Slots, 1)

	co.mu.Lock()
	if co.draining {
		co.mu.Unlock()
		c.close()
		return
	}
	name := m.Worker
	if name == "" {
		co.nameSeq++
		name = fmt.Sprintf("worker-%d", co.nameSeq)
	}
	for co.workers[name] != nil {
		co.nameSeq++
		name = fmt.Sprintf("%s-%d", m.Worker, co.nameSeq)
	}
	co.leaseSeq++
	now := time.Now()
	w := &wstate{name: name, c: c, lease: co.leaseSeq, expires: now.Add(e.leaseTTL()), joined: now,
		outstanding: map[int]bool{}, slots: hello.Slots}
	co.workers[name] = w
	// Grants, expiries and releases are journaled in the group of the
	// critical section that decided them, among the attempts around them.
	co.group.Journal(resilience.AttemptRecord{Run: resilience.LeaseRunID(name), Event: resilience.LeaseGranted,
		Worker: name, Attempt: int(w.lease), Time: time.Now()})
	co.zeroSince = time.Time{}
	// A join under any name replaces one dead worker.
	if co.dead > 0 {
		co.dead--
		e.gDead.Add(-1)
	}
	e.gLive.Add(1)
	e.mLeases.Inc()
	e.Events.Append(eventlog.Info, eventlog.WorkerJoin, name, co.span.ID(),
		telemetry.String("worker", name), telemetry.Int("slots", hello.Slots))
	grant := LeaseGrant{Campaign: co.lc.Campaign, TTLMillis: co.e.leaseTTL().Milliseconds(), Epoch: e.Epoch,
		Trace: e.Tracer.TraceID()}
	if e.Memo != nil {
		grant.Component, grant.Inputs = e.Memo.ComponentDigest, e.Memo.InputDigests
	}
	// A failed write ends the worker as a failed read does (every other
	// close follows w.dead or draining, so a write it fails reports nothing
	// new). The grant is queued under the lock that registered the worker:
	// no top-up's assign can be ahead of it.
	c.onErr = func(err error) { co.workerGone(w, fmt.Errorf("send failed: %w", err)) }
	c.post(OpLeaseGrant, name, w.lease, &grant)
	co.assignAllLocked()
	co.unlock()

	for {
		m, err := c.recv(0)
		if err != nil {
			co.workerGone(w, err)
			return
		}
		// A worker echoes the epoch of the session that admitted it; with
		// one fenced coordinator per address these always match. A mismatch
		// means cross-incarnation confusion (a message raced a handover) —
		// drop it rather than account it under the wrong epoch.
		if m.Epoch != 0 && e.Epoch != 0 && m.Epoch != e.Epoch {
			e.mStaleEpoch.Inc()
			continue
		}
		switch m.Op {
		case OpResult:
			out, err := decodeBody[Outcome](m)
			if err != nil {
				co.workerDead(w, err.Error())
				return
			}
			// Ack every result — duplicates and runs this (possibly resumed)
			// incarnation no longer tracks included — through the recorder:
			// the ack leaves AFTER the batch holding the outcome's record is
			// in the journal, and only if the journal took it. The worker's
			// spool entry clears once the outcome is durable coordinator-side,
			// and otherwise waits for a successor.
			lease, runID := m.Lease, out.RunID
			co.mu.Lock()
			co.handleResultLocked(w, out)
			co.group.Done(func(ok bool) {
				if ok {
					c.post(OpResultAck, name, lease, &ResultAck{RunIDs: []string{runID}})
				}
			})
			co.unlock()
		case OpHeartbeat:
			recv := time.Now() // before the decode and the lock: the skew sample's receive time
			hb, err := decodeBody[Heartbeat](m)
			if err != nil {
				co.workerDead(w, err.Error())
				return
			}
			e.mHeartbeats.Inc()
			if hb.RTTNanos > 0 {
				e.hHeartbeatRTT.Observe(time.Duration(hb.RTTNanos).Seconds())
			}
			if e.Events.Enabled(eventlog.Debug) {
				e.Events.Append(eventlog.Debug, eventlog.WorkerHeartbeat, "", co.span.ID(),
					telemetry.String("worker", name))
			}
			co.mu.Lock()
			w.expires = recv.Add(e.leaseTTL())
			if hb.SentUnixNano != 0 {
				w.skew.sample(time.Unix(0, hb.SentUnixNano), time.Duration(hb.RTTNanos), recv)
				// Echo the send stamp so the worker can measure the round
				// trip; queued ahead of any assignment below.
				c.post(OpHeartbeatAck, name, m.Lease, &HeartbeatAck{EchoUnixNano: hb.SentUnixNano})
			}
			// An idle worker's heartbeat doubles as a work request — it
			// periodically retries the steal path when a one-shot steal
			// found nothing to take.
			if len(w.outstanding) == 0 {
				co.assignLocked(w)
			}
			co.unlock()
		case OpTelemetry:
			recv := time.Now()
			b, err := decodeBody[TelemetryBatch](m)
			if err != nil {
				co.workerDead(w, err.Error())
				return
			}
			co.handleTelemetry(w, b, recv)
		case OpStolen:
			st, err := decodeBody[Stolen](m)
			if err != nil {
				co.workerDead(w, err.Error())
				return
			}
			co.handleStolen(w, st)
		}
	}
}

// workerGone handles a connection ending: a clean drain-time departure
// releases the lease; anything else is a death and re-dispatches.
func (co *coordinator) workerGone(w *wstate, err error) {
	co.mu.Lock()
	if co.draining || w.dead {
		if !w.dead && co.workers[w.name] == w {
			delete(co.workers, w.name)
			co.group.Journal(resilience.AttemptRecord{Run: resilience.LeaseRunID(w.name),
				Event: resilience.LeaseReleased, Worker: w.name, Time: time.Now()})
			co.e.gLive.Add(-1)
			co.e.Events.Append(eventlog.Info, eventlog.WorkerLeave, w.name, co.span.ID(),
				telemetry.String("worker", w.name))
		}
		co.unlock()
		w.c.close()
		return
	}
	co.mu.Unlock()
	co.workerDead(w, err.Error())
}

// workerDead expires a worker's lease: every outstanding run journals lost
// and requeues (the attempt budget is untouched — the fault was the
// worker's), the dead gauge rises, and the remaining workers are topped up.
func (co *coordinator) workerDead(w *wstate, reason string) {
	e, name := co.e, w.name
	co.mu.Lock()
	if co.workers[name] != w { // already ended: dead or released
		co.mu.Unlock()
		return
	}
	w.dead = true
	delete(co.workers, name)
	if co.remaining > 0 && len(co.workers) == 0 {
		co.zeroSince = time.Now()
	}
	co.group.Journal(resilience.AttemptRecord{Run: resilience.LeaseRunID(name), Event: resilience.LeaseExpired,
		Worker: name, Time: time.Now(), Err: reason})
	e.gLive.Add(-1)
	co.dead++
	e.gDead.Add(1)
	e.mDeadTotal.Inc()
	// Lost runs journal in run id order, whatever their slots.
	lost := make([]int, 0, len(w.outstanding))
	for i := range w.outstanding {
		lost = append(lost, i)
	}
	slices.SortFunc(lost, func(a, b int) int { return strings.Compare(co.runs[a].ID, co.runs[b].ID) })
	e.Events.Append(eventlog.Warn, eventlog.WorkerDead, reason, co.span.ID(),
		telemetry.String("worker", name), telemetry.Int("outstanding", len(lost)))
	for _, i := range lost {
		if co.state[i].Terminal() {
			continue
		}
		co.lc.Void(&co.state[i], &co.group, resilience.AttemptLost, name, errors.New(reason))
		e.mLost.Inc()
		e.Events.Append(eventlog.Warn, eventlog.RunLost, reason, co.state[i].Span.ID(),
			telemetry.String("run", co.runs[i].ID), telemetry.String("worker", name))
		co.enqueueLocked(i)
	}
	w.outstanding = map[int]bool{}
	co.assignAllLocked()
	co.checkDoneLocked()
	co.unlock()
	w.c.close()
}

// st returns run i's lifecycle state, begun the first time anything happens
// to the run: a campaign's set-up touches no run.
func (co *coordinator) st(i int) *savanna.RunState {
	r := &co.state[i]
	if r.Result == nil {
		*r = savanna.NewRunState(co.runs[i], &co.results[i])
	}
	return r
}

// run returns run i's lifecycle state with its span open: "remote.run" starts
// at the first thing that happens to the run — its first dispatch, or the
// decision that ends it undispatched.
func (co *coordinator) run(i int) *savanna.RunState {
	r := co.st(i)
	if r.Span == nil {
		_, r.Span = co.e.Tracer.Start(co.ctx, "remote.run", telemetry.String("run", r.Result.Run.ID))
	}
	return r
}

// enqueueLocked puts a run taken back (lost, stolen) at the back of the
// queue, or skips it: an aborted campaign dispatches nothing more.
func (co *coordinator) enqueueLocked(i int) {
	if _, aborted := co.lc.Controller.Aborted(); aborted {
		co.dropLocked(i)
	} else {
		co.pending = append(co.pending, i)
	}
}

// assignAllLocked tops up every live worker, hungriest first.
func (co *coordinator) assignAllLocked() {
	ws := co.byHunger[:0]
	for _, w := range co.workers {
		ws = append(ws, w)
	}
	slices.SortFunc(ws, func(a, b *wstate) int {
		return cmp.Or(cmp.Compare(len(a.outstanding), len(b.outstanding)), strings.Compare(a.name, b.name))
	})
	for _, w := range ws {
		co.assignLocked(w)
	}
	clear(ws)
	co.byHunger = ws[:0]
}

// assignLocked tops the worker up to a full batch from the pending queue,
// or triggers a steal when the queue is dry and the worker is idle.
func (co *coordinator) assignLocked(w *wstate) {
	e := co.e
	if _, aborted := co.lc.Controller.Aborted(); aborted || w.dead || co.draining {
		return
	}
	want := e.batchSize() - len(w.outstanding)
	var batch []cheetah.Run
	var slots []int
	for want > 0 && (co.next < len(co.runs) || len(co.pending) > 0) {
		i := co.next
		if i < len(co.runs) {
			co.next++
		} else {
			i, co.pending = co.pending[0], co.pending[1:]
		}
		if co.state[i].Terminal() {
			continue
		}
		r := co.run(i)
		run := r.Result.Run
		// Quarantine gate at dispatch: a side-lined sweep point fails here,
		// never crossing the wire. (A gate that trips the stop condition
		// empties the queue this loop reads.)
		if !co.lc.Admit(r, &co.group, w.name) {
			co.decidedLocked(i, w.name, true)
			continue
		}
		batch, slots = append(batch, run), append(slots, i)
		w.outstanding[i] = true
		co.lc.Dispatch(r, &co.group, w.name)
		e.mDispatched.Inc()
		e.Events.Append(eventlog.Info, eventlog.RunDispatched, "", r.Span.ID(),
			telemetry.String("run", run.ID), telemetry.String("worker", w.name))
		want--
	}
	if len(batch) > 0 {
		w.c.post(OpAssign, w.name, w.lease, &Assignment{Runs: batch, Slots: slots})
		return
	}
	if len(w.outstanding) == 0 {
		co.stealForLocked(w)
	}
}

// stealForLocked rebalances: ask the most-loaded worker to give back half
// its queued runs for an idle one. The victim relinquishes only runs it
// has not started, so stealing never double-executes.
func (co *coordinator) stealForLocked(idle *wstate) {
	var victim *wstate
	for _, w := range co.workers {
		if w == idle || w.dead || w.stealPending {
			continue
		}
		// A worker executes up to `slots` runs at once; only its queue
		// beyond that is stealable.
		if len(w.outstanding) <= w.slots {
			continue
		}
		if victim == nil || len(w.outstanding) > len(victim.outstanding) ||
			(len(w.outstanding) == len(victim.outstanding) && w.name < victim.name) {
			victim = w
		}
	}
	if victim == nil {
		return
	}
	n := (len(victim.outstanding) - victim.slots + 1) / 2
	if n < 1 {
		return
	}
	victim.stealPending = true
	co.e.mSteals.Inc()
	co.e.Events.Append(eventlog.Info, eventlog.WorkSteal, "", co.span.ID(),
		telemetry.String("from", victim.name), telemetry.String("to", idle.name),
		telemetry.Int("n", n))
	victim.c.post(OpSteal, victim.name, victim.lease, &Steal{N: n})
}

// handleStolen requeues the runs a victim relinquished and feeds the
// hungry workers. A slot the victim does not hold is ignored.
func (co *coordinator) handleStolen(w *wstate, st Stolen) {
	co.mu.Lock()
	defer co.unlock()
	w.stealPending = false
	for _, i := range st.Slots {
		if !w.outstanding[i] || co.state[i].Terminal() {
			continue
		}
		delete(w.outstanding, i)
		// Journal the requeue: without it, a coordinator dying between this
		// steal and the re-dispatch would replay the run as "dispatched to
		// the victim" — owed either way, but the journal would blame a
		// worker that no longer holds it. The stolen record keeps the
		// ledger's worker attribution truthful across a handover.
		co.lc.Void(&co.state[i], &co.group, resilience.AttemptStolen, w.name, nil)
		co.e.mStolenRuns.Inc()
		co.enqueueLocked(i)
	}
	co.assignAllLocked()
	co.checkDoneLocked()
}

// handleResultLocked files the worker span of every outcome it is handed and
// hands the outcome to the lifecycle. What that decides joins the critical
// section's group, whose callback acknowledges the outcome once the recorder
// has written it.
func (co *coordinator) handleResultLocked(w *wstate, out Outcome) {
	i := co.slotOf(out)
	co.fileWorkerSpanLocked(w, &out, i)
	if i < 0 {
		return
	}
	delete(w.outstanding, i)
	r := co.st(i)
	if r.Terminal() {
		// A re-dispatched run completed twice (lease expired under a slow
		// but living worker, or a steal raced a start). First terminal
		// outcome won; this one is accounting noise, never a double count.
		co.e.mDuplicates.Inc()
		co.assignAllLocked()
		return
	}
	elapsed := time.Duration(out.Seconds * float64(time.Second))
	res := savanna.AttemptResult{Worker: w.name, Elapsed: elapsed, Outputs: out.Outputs, Usage: savanna.ResourceUsage{
		CPUUserSeconds: out.CPUUserSeconds, CPUSystemSeconds: out.CPUSystemSeconds, MaxRSSBytes: out.MaxRSSBytes}}
	if out.OK && out.Cached {
		co.lc.Cached(r, &co.group, w.name, out.Outputs, elapsed)
		co.decidedLocked(i, w.name, true)
	} else {
		halted := false
		if !out.OK {
			// An outcome from a worker that did not classify it is transient.
			res.Err, res.Class = errors.New(out.Err), resilience.Class(out.Class)
			if res.Class == "" {
				res.Class = resilience.ClassTransient
			}
			// An aborted campaign grants no retry: it is winding down.
			_, halted = co.lc.Controller.Aborted()
		}
		co.decidedLocked(i, w.name, co.lc.Settle(r, &co.group, res, halted).Terminal)
	}
	co.assignAllLocked()
}

// slotOf finds the run an outcome reports (-1: none this incarnation tracks):
// its slot when the run there has its id, as always within one incarnation,
// else — a spool replay of an earlier incarnation's slot, after Owed shifted
// the list — the id's, from index (slot+1 by id), built on first need.
func (co *coordinator) slotOf(out Outcome) int {
	if uint(out.Slot) < uint(len(co.runs)) && co.runs[out.Slot].ID == out.RunID {
		return out.Slot
	}
	if co.index == nil {
		co.index = make(map[string]int, len(co.runs))
		for i := range co.runs {
			co.index[co.runs[i].ID] = i + 1
		}
	}
	return co.index[out.RunID] - 1
}

// decidedLocked acts on what the lifecycle decided about run i. A run that
// ended is concluded here, in the critical section that fills the group with
// its terminal record; when that trips the stop condition, what is still
// queued is skipped, so the campaign winds down instead of grinding on. A run
// owed another attempt requeues at the back — the rest of the sweep paces the
// retry, the distributed analogue of backoff, and any worker may pick it up.
// worker is as in the decision.
func (co *coordinator) decidedLocked(i int, worker string, terminal bool) {
	if !terminal {
		co.pending = append(co.pending, i)
		return
	}
	co.remaining--
	if co.lc.Conclude(&co.state[i], worker) {
		for ; co.next < len(co.runs); co.next++ {
			co.dropLocked(co.next)
		}
		for _, j := range co.pending {
			co.dropLocked(j)
		}
		co.pending = nil
	}
	co.checkDoneLocked()
}

// dropLocked ends skipped a run the campaign will not place any more (a
// no-op for one already ended).
func (co *coordinator) dropLocked(i int) {
	if !co.state[i].Terminal() {
		co.lc.Skip(co.run(i), &co.group)
		co.remaining--
	}
}

// checkDoneLocked unblocks RunCampaign once every run is terminal.
func (co *coordinator) checkDoneLocked() {
	if co.remaining == 0 {
		co.doneOnce.Do(func() { close(co.doneCh) })
	}
}

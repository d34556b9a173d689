package remote

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Worker is the remote execution half: it dials a coordinator, accepts a
// lease, and executes assigned runs with a local executor, reporting each
// outcome with its artifacts as CAS digests. A worker holds no campaign
// state — kill it any time; the coordinator's lease expiry re-dispatches
// whatever it was holding.
type Worker struct {
	// Name identifies the worker to the coordinator (and in the journal and
	// health rollups). Empty lets the coordinator assign one.
	Name string
	// Addr is the coordinator's control address (host:port).
	Addr string
	// Dial overrides the default TCP dial — tests inject pipes or faulty
	// connections here.
	Dial func() (net.Conn, error)
	// Executor runs the work, exactly as in savanna.LocalEngine. A
	// ContextExecutor is cancelled on drain.
	Executor savanna.Executor
	// Slots is the local run concurrency (default 1).
	Slots int
	// Heartbeat overrides the renewal period (default: lease TTL / 3).
	Heartbeat time.Duration
	// Cache, when set, gives the worker a memo recipe seeded from the lease
	// grant: cache hits skip execution, and successful runs push their
	// outputs (named by Collect) into the store so only digests travel back.
	Cache *cas.ActionCache
	// Collect and Restore complete the memo, as in savanna.Memo.
	Collect func(run cheetah.Run) (map[string]string, error)
	Restore func(run cheetah.Run, outputs map[string]cas.Digest) error

	// ReconnectWait bounds Serve's patience: after this long without a
	// successful attach it gives up and returns the last error (default
	// 60s). Between attempts Serve backs off with decorrelated jitter from
	// reconnectBase up to reconnectMax.
	ReconnectWait time.Duration

	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
	Events  *eventlog.Log

	// maxEpoch is the highest coordinator epoch this worker has served; it
	// survives sessions, so after a handover the deposed incarnation's
	// grants and messages are rejected. spool survives sessions too — that
	// is its whole point.
	maxEpoch  atomic.Int64
	sawGrant  atomic.Bool
	spoolOnce sync.Once
	spool     *outcomeSpool

	telOnce        sync.Once
	mExecuted      *telemetry.Counter
	mCached        *telemetry.Counter
	mFailed        *telemetry.Counter
	mStolen        *telemetry.Counter
	mReconnects    *telemetry.Counter
	mStaleEpoch    *telemetry.Counter
	mSpoolReplayed *telemetry.Counter
	mSpoolDropped  *telemetry.Counter
	gSpoolDepth    *telemetry.Gauge
	gQueued        *telemetry.Gauge
	gInFlight      *telemetry.Gauge
	hRunSecs       *telemetry.Histogram
	hQueueWait     *telemetry.Histogram
	hCPUSecs       *telemetry.Histogram
	hMaxRSS        *telemetry.Histogram
}

func (w *Worker) telemetryInit() {
	w.telOnce.Do(func() {
		w.mExecuted = w.Metrics.Counter("remote_worker.runs_executed_total")
		w.mCached = w.Metrics.Counter("remote_worker.runs_cached_total")
		w.mFailed = w.Metrics.Counter("remote_worker.runs_failed_total")
		w.mStolen = w.Metrics.Counter("remote_worker.runs_relinquished_total")
		w.mReconnects = w.Metrics.Counter("remote_worker.reconnects_total")
		w.mStaleEpoch = w.Metrics.Counter("remote_worker.stale_epoch_total")
		w.mSpoolReplayed = w.Metrics.Counter("remote_worker.spool_replayed_total")
		w.mSpoolDropped = w.Metrics.Counter("remote_worker.spool_dropped_total")
		w.gSpoolDepth = w.Metrics.Gauge("remote_worker.spool_depth")
		w.gQueued = w.Metrics.Gauge("remote_worker.queued")
		w.gInFlight = w.Metrics.Gauge("remote_worker.in_flight")
		w.hRunSecs = w.Metrics.Histogram("remote_worker.run_seconds", nil)
		w.hQueueWait = w.Metrics.Histogram("remote_worker.queue_wait_seconds", nil)
		w.hCPUSecs = w.Metrics.Histogram("remote_worker.run_cpu_seconds", nil)
		w.hMaxRSS = w.Metrics.Histogram("remote_worker.run_max_rss_bytes", savanna.RSSBuckets)
	})
}

// The worker's fixed timings: workerIOTimeout bounds each flush of the
// connection's writer; Serve's redial backoff starts at reconnectBase and
// is capped at reconnectMax.
const (
	workerIOTimeout = 10 * time.Second
	reconnectBase   = 100 * time.Millisecond
	reconnectMax    = 5 * time.Second
)

func (w *Worker) slots() int                   { return orDefault(w.Slots, 1) }
func (w *Worker) reconnectWait() time.Duration { return orDefault(w.ReconnectWait, 60*time.Second) }

func (w *Worker) spoolInit() *outcomeSpool {
	w.spoolOnce.Do(func() { w.spool = newOutcomeSpool() })
	return w.spool
}

// SpoolDepth reports the number of outcomes awaiting coordinator
// acknowledgement (also exported as the remote_worker.spool_depth gauge).
func (w *Worker) SpoolDepth() int {
	return w.spoolInit().depth()
}

// Serve runs campaign sessions until one drains cleanly (nil) or the
// context ends, reconnecting through coordinator loss with
// decorrelated-jitter backoff. Outcomes finished while disconnected sit in
// the spool and replay on the next handshake. Serve gives up — returning
// the last session error — once ReconnectWait passes without a successful
// attach, covering both "coordinator never came back" and "the address now
// fences us out".
func (w *Worker) Serve(ctx context.Context) error {
	policy := resilience.RetryPolicy{BaseDelay: reconnectBase, MaxDelay: reconnectMax}
	// Deterministic per-worker jitter: a fleet restarting together still
	// spreads its redials, and tests replay the exact schedule.
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) | 1))
	var prev time.Duration
	lastAttach := time.Now()
	for {
		w.sawGrant.Store(false)
		err := w.Run(ctx)
		if err == nil || ctx.Err() != nil {
			return err
		}
		if w.sawGrant.Load() {
			// The session attached before dying: reset both the give-up
			// window and the backoff ramp.
			lastAttach = time.Now()
			prev = 0
		}
		if time.Since(lastAttach) > w.reconnectWait() {
			return err
		}
		w.telemetryInit()
		w.mReconnects.Inc()
		prev = policy.Backoff(prev, rng)
		if serr := resilience.StdSleeper(ctx, prev); serr != nil {
			return err
		}
	}
}

// wsession is one connected campaign session's worker-side state.
type wsession struct {
	w    *Worker
	c    *conn
	name string

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []cheetah.Run
	inFlight int
	draining bool
	readErr  error
	// enqueued stamps each queued run's arrival (the queue-wait clock).
	// Entries leave at pop, steal, or drain.
	enqueued map[string]time.Time

	// ship drains local telemetry to the coordinator (nil = nothing to
	// ship); lastRTT is the latest heartbeat round trip in nanoseconds.
	ship    *shipper
	lastRTT atomic.Int64
}

// Run serves one campaign: dial, hello, lease, then execute assignments
// until the coordinator drains the session (returns nil) or the connection
// breaks (returns the error). The context cancels in-flight runs and
// disconnects.
func (w *Worker) Run(ctx context.Context) error {
	if w.Executor == nil {
		return fmt.Errorf("remote: worker needs an executor")
	}
	if w.Addr == "" && w.Dial == nil {
		return fmt.Errorf("remote: worker needs a coordinator address")
	}
	w.telemetryInit()

	dial := w.Dial
	if dial == nil {
		dial = func() (net.Conn, error) { return net.Dial("tcp", w.Addr) }
	}
	nc, err := dial()
	if err != nil {
		return fmt.Errorf("remote: dialing coordinator: %w", err)
	}
	c, err := newConn(nc, workerIOTimeout, w.Metrics, "remote_worker")
	if err != nil {
		nc.Close()
		return err
	}
	// Every path but the clean drain drops what is queued. A failed write
	// closes the connection too (conn.writeLoop): the read loop then winds
	// the session down *without* cancelling in-flight runs, which finish
	// into the spool for replay.
	defer c.close()

	c.post(OpHello, w.Name, 0, &Hello{Slots: w.slots()})
	m, err := c.recv(10 * time.Second)
	if err != nil {
		return fmt.Errorf("remote: waiting for lease: %w", err)
	}
	if m.Op == OpDrain {
		return nil // campaign already over
	}
	if m.Op != OpLeaseGrant {
		return fmt.Errorf("remote: expected lease-grant, got %q", m.Op)
	}
	grant, err := decodeBody[LeaseGrant](m)
	if err != nil {
		return err
	}
	name := m.Worker // the coordinator may have uniqued it
	lease := m.Lease

	// Epoch fence: never accept a grant from an incarnation older than one
	// we have already served — the dialed address reached a deposed
	// coordinator (partitioned, or a stale addr file). Epoch 0 coordinators
	// (no journal) opt out of fencing.
	if grant.Epoch > 0 {
		for {
			cur := w.maxEpoch.Load()
			if grant.Epoch < cur {
				w.mStaleEpoch.Inc()
				w.Events.Append(eventlog.Warn, eventlog.WorkerFenced, grant.Campaign, 0,
					telemetry.String("worker", name),
					telemetry.Int("epoch", int(grant.Epoch)), telemetry.Int("max_epoch", int(cur)))
				return fmt.Errorf("remote: stale coordinator epoch %d (worker has served %d)", grant.Epoch, cur)
			}
			if w.maxEpoch.CompareAndSwap(cur, grant.Epoch) {
				break
			}
		}
		c.epoch.Store(grant.Epoch)
	}
	w.sawGrant.Store(true)

	var memo *savanna.Memo
	if w.Cache != nil {
		memo = &savanna.Memo{
			Cache:           w.Cache,
			ComponentDigest: grant.Component,
			InputDigests:    grant.Inputs,
			Collect:         w.Collect,
			Restore:         w.Restore,
		}
		if memo.Validate() != nil {
			memo = nil
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &wsession{w: w, c: c, name: name,
		enqueued: map[string]time.Time{}}
	s.cond = sync.NewCond(&s.mu)
	s.ship = newShipper(w.Tracer, w.Metrics, w.Events)
	runCtx, span := w.Tracer.Start(runCtx, "remote.worker",
		telemetry.String("worker", name), telemetry.String("campaign", grant.Campaign))
	defer span.End()
	w.Events.Append(eventlog.Info, eventlog.WorkerJoin, grant.Campaign, span.ID(),
		telemetry.String("worker", name), telemetry.Int("slots", w.slots()))

	// Heartbeat at a third of the TTL — two may be lost before the lease
	// lapses.
	hb := w.Heartbeat
	if hb <= 0 {
		hb = time.Duration(grant.TTLMillis) * time.Millisecond / 3
	}
	if hb <= 0 {
		hb = time.Second
	}
	hbStop := make(chan struct{})
	defer close(hbStop)
	go s.heartbeatLoop(hb, lease, hbStop)

	// Replay the outcome spool: everything finished under a previous
	// session that the coordinator never acknowledged — work completed
	// while it was down, or results whose acks died with the connection.
	// The coordinator's first-terminal-outcome latch and its resume replay
	// make redelivery idempotent; acks (possibly for runs it no longer
	// tracks) drain the spool.
	if pend := w.spoolInit().pending(); len(pend) > 0 {
		for i := range pend {
			c.post(OpResult, name, lease, &pend[i])
		}
		w.mSpoolReplayed.Add(int64(len(pend)))
		w.Events.Append(eventlog.Info, eventlog.WorkerSpoolReplay, grant.Campaign, 0,
			telemetry.String("worker", name), telemetry.Int("outcomes", len(pend)),
			telemetry.Int("epoch", int(grant.Epoch)))
	}

	// Context cancellation unblocks everything: executors via runCtx, the
	// reader via the closed connection.
	go func() {
		select {
		case <-runCtx.Done():
			c.close()
			s.wake()
		case <-hbStop:
		}
	}()

	var eg sync.WaitGroup
	for i := 0; i < w.slots(); i++ {
		eg.Add(1)
		go func() {
			defer eg.Done()
			s.executeLoop(runCtx, memo, lease, span)
		}()
	}

	err = s.readLoop(lease)
	if err == nil {
		// Clean drain: journal the departure, close out the session span so
		// it ships too, and put the telemetry backlog on the wire before
		// closing — cancel() below would drop what is still queued.
		w.Events.Append(eventlog.Info, eventlog.WorkerLeave, grant.Campaign, span.ID(),
			telemetry.String("worker", name))
		span.End()
		s.flush(lease, true)
		c.shut()
		cancel() // campaign over: stop in-flight work
	}
	// A broken connection deliberately does NOT cancel in-flight runs: the
	// coordinator is gone, not the work. Executors finish their current
	// run, the outcomes land in the spool (the result post is dropped), and
	// Serve replays them on the next handshake — finished work is never
	// redone because the coordinator died at the wrong moment.
	s.wake()
	eg.Wait()
	cancel()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// wake broadcasts the session condition so blocked executors re-check.
func (s *wsession) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// readLoop consumes coordinator messages until drain (nil) or failure.
func (s *wsession) readLoop(lease int64) error {
	for {
		m, err := s.c.recv(-1) // block indefinitely: silence is normal between batches
		if err != nil {
			s.mu.Lock()
			s.readErr = err
			s.cond.Broadcast()
			s.mu.Unlock()
			return fmt.Errorf("remote: coordinator connection: %w", err)
		}
		// Stale-epoch fence: a message stamped below the highest epoch this
		// worker has served comes from a deposed coordinator (partitioned
		// but still talking). Drop it — stale assignments must not execute,
		// a stale drain must not end the session, and a stale result-ack
		// must not clear the spool. Epoch 0 senders opt out of fencing.
		if m.Epoch != 0 && m.Epoch < s.w.maxEpoch.Load() {
			s.w.mStaleEpoch.Inc()
			s.w.Events.Append(eventlog.Warn, eventlog.WorkerFenced, m.Op, 0,
				telemetry.String("worker", s.name),
				telemetry.Int("epoch", int(m.Epoch)), telemetry.Int("max_epoch", int(s.w.maxEpoch.Load())))
			continue
		}
		switch m.Op {
		case OpAssign:
			a, err := decodeBody[Assignment](m)
			if err != nil {
				return err
			}
			now := time.Now()
			s.mu.Lock()
			for _, r := range a.Runs {
				s.enqueued[r.ID] = now
			}
			s.queue = append(s.queue, a.Runs...)
			s.w.gQueued.Set(float64(len(s.queue)))
			s.cond.Broadcast()
			s.mu.Unlock()
		case OpSteal:
			st, err := decodeBody[Steal](m)
			if err != nil {
				return err
			}
			s.relinquish(st.N, lease)
		case OpResultAck:
			a, err := decodeBody[ResultAck](m)
			if err != nil {
				return err
			}
			sp := s.w.spoolInit()
			for _, id := range a.RunIDs {
				sp.ack(id)
			}
			s.w.gSpoolDepth.Set(float64(sp.depth()))
		case OpHeartbeatAck:
			a, err := decodeBody[HeartbeatAck](m)
			if err != nil {
				return err
			}
			// Both sides of the subtraction are this process's clock, so the
			// round trip is skew-free. A negative value means the local clock
			// stepped backwards mid-flight; discard it.
			if a.EchoUnixNano != 0 {
				if rtt := time.Now().UnixNano() - a.EchoUnixNano; rtt >= 0 {
					s.lastRTT.Store(rtt)
				}
			}
		case OpDrain:
			s.mu.Lock()
			s.draining = true
			s.queue = nil
			s.enqueued = map[string]time.Time{}
			s.w.gQueued.Set(0)
			s.cond.Broadcast()
			s.mu.Unlock()
			return nil
		}
	}
}

// relinquish gives back up to n runs from the tail of the local queue —
// only runs no executor has started, so a steal can never double-execute.
func (s *wsession) relinquish(n int, lease int64) {
	s.mu.Lock()
	if n > len(s.queue) {
		n = len(s.queue)
	}
	ids := make([]string, 0, n)
	if n > 0 {
		cut := len(s.queue) - n
		for _, r := range s.queue[cut:] {
			ids = append(ids, r.ID)
			delete(s.enqueued, r.ID)
		}
		s.queue = s.queue[:cut]
		s.w.gQueued.Set(float64(len(s.queue)))
	}
	s.mu.Unlock()
	for range ids {
		s.w.mStolen.Inc()
	}
	// Always answer, even with nothing to give — the coordinator's
	// steal-in-flight latch waits for the reply.
	s.c.post(OpStolen, s.name, lease, &Stolen{RunIDs: ids})
}

// heartbeatLoop renews the lease until the session ends.
func (s *wsession) heartbeatLoop(period time.Duration, lease int64, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		hb := &Heartbeat{Queued: len(s.queue), InFlight: s.inFlight, RTTNanos: s.lastRTT.Load()}
		s.mu.Unlock()
		s.c.post(OpHeartbeat, s.name, lease, hb) // the writer stamps SentUnixNano
		// Telemetry flushes ride the heartbeat cadence: one bounded batch
		// per tick, so shipping never competes with the result path for
		// long.
		s.flush(lease, false)
	}
}

// flush queues pending telemetry batches: one on the heartbeat path, up to
// maxDrainFlushes on drain, the last of which reports the backlog the burst
// leaves behind as dropped.
func (s *wsession) flush(lease int64, drain bool) {
	if s.ship == nil {
		return
	}
	n := 1
	if drain {
		n = maxDrainFlushes
	}
	for i := 0; i < n; i++ {
		b, ok := s.ship.next(maxTelemetryBatch)
		if !ok {
			return
		}
		b.RTTNanos = s.lastRTT.Load()
		if drain && i == n-1 {
			spans, events := s.ship.abandon()
			b.DroppedSpans += spans
			b.DroppedEvents += events
		}
		s.c.post(OpTelemetry, s.name, lease, &b) // the writer stamps SentUnixNano
	}
}

// executeLoop is one slot: pull, execute, report, repeat.
func (s *wsession) executeLoop(ctx context.Context, memo *savanna.Memo, lease int64, parent *telemetry.Span) {
	w := s.w
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.draining && s.readErr == nil && ctx.Err() == nil {
			s.cond.Wait()
		}
		if s.draining || s.readErr != nil || ctx.Err() != nil {
			s.mu.Unlock()
			return
		}
		run := s.queue[0]
		s.queue = s.queue[1:]
		s.inFlight++
		var wait time.Duration
		if at, ok := s.enqueued[run.ID]; ok {
			wait = time.Since(at)
			delete(s.enqueued, run.ID)
		}
		w.gQueued.Set(float64(len(s.queue)))
		w.gInFlight.Add(1)
		s.mu.Unlock()

		out := s.execute(ctx, run, memo, wait)

		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
		w.gInFlight.Add(-1)
		// Spool before sending: the outcome survives until the coordinator
		// acks it, so a result lost to a dying connection (or to a
		// coordinator that journaled nothing before crashing) replays on
		// the next handshake. Runs cancelled by the context are the one
		// exception — their failure reflects this worker's shutdown, not
		// the run, and must not be replayed as history to a successor.
		if ctx.Err() == nil || out.OK {
			if evicted := w.spoolInit().put(out); evicted > 0 {
				w.mSpoolDropped.Add(int64(evicted))
			}
			w.gSpoolDepth.Set(float64(w.spool.depth()))
		}
		s.c.post(OpResult, s.name, lease, &out)
	}
}

// execute runs one assignment locally — memo lookup, then savanna.Attempt,
// the attempt body LocalEngine runs — and reports it as a wire outcome.
// wait is the run's local queue wait. The run span's "run" attribute is
// what the coordinator's merge parents it by (DESIGN.md §4h).
func (s *wsession) execute(ctx context.Context, run cheetah.Run, memo *savanna.Memo, wait time.Duration) Outcome {
	w := s.w
	var span *telemetry.Span
	if w.Tracer != nil { // the attributes are formatted (a FormatFloat) for a tracer only
		ctx, span = w.Tracer.Start(ctx, workerRunSpan,
			telemetry.String("run", run.ID), telemetry.String("worker", s.name),
			telemetry.Float("queue_wait_s", wait.Seconds()))
	}
	w.hQueueWait.Observe(wait.Seconds())
	start := time.Now()
	if res, ok := memo.Lookup(run); ok {
		w.mCached.Inc()
		span.End(telemetry.Bool("cached", true))
		w.Events.Append(eventlog.Info, eventlog.RunCached, "", span.ID(),
			telemetry.String("run", run.ID))
		return Outcome{RunID: run.ID, OK: true, Cached: true,
			Seconds: time.Since(start).Seconds(), Outputs: savanna.OutputDigests(res)}
	}
	w.Events.Append(eventlog.Info, eventlog.RunStart, "", span.ID(),
		telemetry.String("run", run.ID), telemetry.String("worker", s.name))
	// Measure what the run costs, not just how long it takes: the span and
	// histograms surface the attempt's rusage locally, and the Outcome ships
	// it to the coordinator.
	res := savanna.Attempt(ctx, w.Executor, memo, run, 0)
	usage := res.Usage
	out := Outcome{RunID: run.ID, OK: res.Err == nil, Seconds: time.Since(start).Seconds(),
		CPUUserSeconds: usage.CPUUserSeconds, CPUSystemSeconds: usage.CPUSystemSeconds,
		MaxRSSBytes: usage.MaxRSSBytes}
	w.hRunSecs.Observe(out.Seconds)
	if !usage.Zero() {
		span.Annotate(telemetry.Float("cpu_s", usage.CPUSeconds()),
			telemetry.Int("max_rss_bytes", int(usage.MaxRSSBytes)))
		w.hCPUSecs.Observe(usage.CPUSeconds())
		w.hMaxRSS.Observe(float64(usage.MaxRSSBytes))
		w.Events.Append(eventlog.Info, eventlog.RunResources, "", span.ID(),
			telemetry.String("run", run.ID), telemetry.String("worker", s.name),
			telemetry.Float("cpu_s", usage.CPUSeconds()),
			telemetry.Int("max_rss_bytes", int(usage.MaxRSSBytes)))
	}
	if res.Err != nil {
		out.Err, out.Class = res.Err.Error(), string(res.Class)
		w.mFailed.Inc()
		span.End(telemetry.String("status", "failed"))
		w.Events.Append(eventlog.Error, eventlog.RunFailed, out.Err, span.ID(),
			telemetry.String("run", run.ID), telemetry.String("worker", s.name))
		return out
	}
	out.Outputs = res.Outputs
	w.mExecuted.Inc()
	span.End(telemetry.String("status", "succeeded"))
	w.Events.Append(eventlog.Info, eventlog.RunSucceeded, "", span.ID(),
		telemetry.String("run", run.ID), telemetry.String("worker", s.name))
	return out
}

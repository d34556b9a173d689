package savanna

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/hpcsim"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
	"fairflow/internal/telemetry/history"
)

// DurationModel predicts the execution time of a run on the simulated
// cluster. The model receives its own deterministic random stream derived
// from the run identity, so the same run costs the same under every
// scheduler — the comparison isolates scheduling, not luck.
type DurationModel func(run cheetah.Run, rng *rand.Rand) float64

// LogNormalDurations models the heavy-tailed per-feature iRF fit times of
// Section V-D: most fits are quick, a tail of features (those with complex
// trees) run several times longer — the stragglers that wreck the
// set-synchronized baseline.
func LogNormalDurations(medianSeconds, sigma float64) DurationModel {
	return func(run cheetah.Run, rng *rand.Rand) float64 {
		return math.Exp(rng.NormFloat64()*sigma + math.Log(medianSeconds))
	}
}

// TruncatedLogNormalDurations caps the lognormal tail at maxSeconds. Use
// this when runs must fit inside an allocation: a run longer than the
// walltime could never complete under any scheduler, so the campaign would
// never finish — real per-feature fits are bounded in practice.
func TruncatedLogNormalDurations(medianSeconds, sigma, maxSeconds float64) DurationModel {
	base := LogNormalDurations(medianSeconds, sigma)
	return func(run cheetah.Run, rng *rand.Rand) float64 {
		d := base(run, rng)
		if d > maxSeconds {
			d = maxSeconds
		}
		return d
	}
}

// FaultModel injects application-level failures into the simulation: it is
// consulted each time a simulated task runs to completion, and a non-nil
// error fails that attempt with the error's resilience class — the knob the
// chaos tests turn. The rng is deterministic per (run, attempt) so a seeded
// campaign replays identically.
type FaultModel func(run cheetah.Run, attempt int, rng *rand.Rand) error

// FlakyFaults returns a FaultModel that fails each attempt independently
// with probability p, transient class.
func FlakyFaults(p float64) FaultModel {
	return func(run cheetah.Run, attempt int, rng *rand.Rand) error {
		if rng.Float64() < p {
			return resilience.MarkTransient(fmt.Errorf("injected transient fault on %s attempt %d", run.ID, attempt))
		}
		return nil
	}
}

// SimEngine executes campaign runs on a simulated cluster allocation.
type SimEngine struct {
	// Durations predicts per-run cost.
	Durations DurationModel
	// Seed derives per-run random streams.
	Seed int64
	// Failures, when MTTF > 0, arms node-failure injection on each
	// allocation's cluster: failing nodes kill their runs (which requeue)
	// and leave the allocation degraded until the walltime.
	Failures hpcsim.FailureConfig
	// Resilience, when non-nil, arms the same fault-tolerance stack as
	// LocalEngine — classified retries, quarantine, attempt journal, stop
	// condition — except that retry backoff advances *virtual* time: a
	// multi-minute backoff schedule costs the simulation nothing real.
	Resilience *resilience.Config
	// FaultModel, when non-nil, injects application faults (node failures
	// come from Failures; this models the application itself failing).
	FaultModel FaultModel
	// Tracer, Metrics and Events mirror LocalEngine's observability wiring,
	// but stamped in virtual time: the engine drives the tracer's and
	// journal's clocks from the simulation, offset so spans from successive
	// allocations lay out sequentially instead of overlapping at zero. All
	// three left nil cost the engine only nil checks.
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
	Events  *eventlog.Log
	// Probe, when non-nil, runs after each allocation's cluster is built
	// and before the simulation drains — the hook for scheduling mid-sim
	// observations (e.g. recurring monitor.Health evaluations) on the sim.
	Probe func(*hpcsim.Sim, *hpcsim.Cluster)
	// History, when non-nil, records registry snapshots in virtual time: the
	// engine points the ring's clock at the simulation and samples at run
	// completions, throttled to HistoryInterval, so a campaign simulated in
	// milliseconds still yields a metric time series spanning its simulated
	// hours.
	History *history.Ring
	// HistoryInterval is the minimum virtual time between History samples.
	// Default 1s.
	HistoryInterval time.Duration

	// clockBase accumulates virtual seconds across allocations so each
	// fresh Sim (which starts at 0) continues the campaign's timeline.
	clockBase float64
	// campaignCtx parents allocation spans under RunToCompletion's
	// campaign span.
	campaignCtx context.Context
	// rc is the campaign's resilience runtime; RunToCompletion installs one
	// for the whole resubmission loop, a standalone RunAllocation gets its
	// own. attempts and prevDelay carry per-run retry state across
	// allocations (an infra kill refunds its attempt).
	rc        *resilience.Controller
	attempts  map[string]int
	prevDelay map[string]time.Duration
	// rec writes the campaign's journal; it lives exactly as long as rc.
	// group is the one the (single-goroutine) simulation posts through.
	rec   *Recorder
	group Group
	// sim is the current allocation's event queue (for virtual-time backoff).
	sim *hpcsim.Sim
	// Instruments, resolved once per allocation.
	mExecuted    *telemetry.Counter
	mKilled      *telemetry.Counter
	mFailed      *telemetry.Counter
	mRetries     *telemetry.Counter
	mQuarantined *telemetry.Counter
	hRunSecs     *telemetry.Histogram
	hAttempts    *telemetry.Histogram
}

// controller builds the sim campaign's resilience runtime (a default one
// when no Resilience config is set: single attempt, no quarantine).
func (e *SimEngine) controller() *resilience.Controller {
	if e.Resilience != nil {
		return resilience.NewController(*e.Resilience)
	}
	return resilience.NewController(resilience.Config{})
}

// resetResilience installs a fresh controller, its recorder (events under
// span) and per-run retry state; closeResilience ends them.
func (e *SimEngine) resetResilience(span int64) {
	e.rc = e.controller()
	e.rec = OpenRecorder(RecorderConfig{Engine: "sim", Span: span, Journal: e.rc.Journal(),
		Events: e.Events, Metrics: e.Metrics})
	e.attempts = map[string]int{}
	e.prevDelay = map[string]time.Duration{}
}

// closeResilience closes the recorder — on return the journal is complete
// and fsynced — and uninstalls the campaign's runtime.
func (e *SimEngine) closeResilience() {
	e.rec.Close()
	e.rec, e.rc = nil, nil
}

// journal posts one attempt transition, stamped in virtual time now.
func (e *SimEngine) journal(run, point string, attempt int, event string, class resilience.Class, err error) {
	e.group.Journal(e.rc.Record(run, point, attempt, event, "", class, err))
	e.rec.Post(&e.group)
}

// faultRNG derives the deterministic random stream for one (run, attempt)
// fault decision.
func (e *SimEngine) faultRNG(run cheetah.Run, attempt int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(run.ID))
	return rand.New(rand.NewSource(e.Seed ^ int64(h.Sum64()) ^ int64(attempt)*1_000_003))
}

// setVirtualClock points the engine's tracer and journal at the virtual
// instant now() seconds past the epoch.
func (e *SimEngine) setVirtualClock(now func() float64) {
	clk := telemetry.ClockFunc(func() time.Time {
		return time.Unix(0, 0).Add(time.Duration(now() * float64(time.Second)))
	})
	e.Tracer.SetClock(clk)
	e.Events.SetClock(clk)
	e.History.SetClock(clk)
}

// sampleHistory throttle-samples the history ring in virtual time.
func (e *SimEngine) sampleHistory() {
	if e.History == nil {
		return
	}
	min := e.HistoryInterval
	if min <= 0 {
		min = time.Second
	}
	e.History.SampleEvery(min)
}

// runDuration derives the deterministic duration of a run.
func (e *SimEngine) runDuration(run cheetah.Run) float64 {
	h := fnv.New64a()
	h.Write([]byte(run.ID))
	rng := rand.New(rand.NewSource(e.Seed ^ int64(h.Sum64())))
	d := e.Durations(run, rng)
	if d <= 0 {
		d = 1e-6
	}
	return d
}

// AllocationOutcome is the result of pushing runs through one simulated
// allocation.
type AllocationOutcome struct {
	// Completed lists the runs that finished inside the walltime.
	Completed []cheetah.Run
	// Failed lists runs that ended terminally inside this allocation:
	// retry budget exhausted, permanent failure, or quarantined sweep point.
	// Unlike walltime-killed runs they must NOT be resubmitted.
	Failed []cheetah.Run
	// Killed counts runs that were started but cut off at the walltime.
	Killed int
	// WallSeconds is the allocation time actually used (≤ walltime).
	WallSeconds float64
	// Utilization is the busy fraction of the allocation's node-hours over
	// the used wall time.
	Utilization float64
	// Timeline samples busy node counts over the allocation (Fig. 6).
	Timeline []hpcsim.TimelinePoint
}

// Discipline selects the scheduling strategy inside an allocation.
type Discipline string

// Scheduling disciplines.
const (
	// Dynamic is Savanna's pilot: any idle node immediately takes the next
	// pending run.
	Dynamic Discipline = "dynamic"
	// SetSynchronized is the baseline: runs go in sets of exactly the node
	// count, with a barrier after each set.
	SetSynchronized Discipline = "set-synchronized"
)

// RunAllocation executes as many of the given runs as fit in one allocation
// of the given shape on a fresh simulated cluster, under the chosen
// discipline. It returns the outcome; unfinished runs are simply absent
// from Completed (resubmission picks them up).
func (e *SimEngine) RunAllocation(runs []cheetah.Run, nodes int, walltime float64, d Discipline, clusterSeed int64) (*AllocationOutcome, error) {
	if e.Durations == nil {
		return nil, fmt.Errorf("savanna: sim engine needs a duration model")
	}
	if nodes < 1 || walltime <= 0 {
		return nil, fmt.Errorf("savanna: invalid allocation shape %d nodes × %.0fs", nodes, walltime)
	}
	sim := hpcsim.New(clusterSeed)
	base := e.clockBase
	e.setVirtualClock(func() float64 { return base + sim.Now() })
	if e.rc == nil {
		// Standalone allocation (not under RunToCompletion): own runtime.
		e.resetResilience(0)
		defer e.closeResilience()
	}
	// Journal stamps advance with the simulation, not the wall clock.
	e.rc.SetNow(func() time.Time {
		return time.Unix(0, 0).Add(time.Duration((base + sim.Now()) * float64(time.Second)))
	})
	e.sim = sim
	e.mExecuted = e.Metrics.Counter("savanna.runs_executed_total")
	e.mKilled = e.Metrics.Counter("savanna.runs_killed_total")
	e.mFailed = e.Metrics.Counter("savanna.runs_failed_total")
	e.mRetries = e.Metrics.Counter("savanna.retries_total")
	e.mQuarantined = e.Metrics.Counter("savanna.quarantined_total")
	e.hRunSecs = e.Metrics.Histogram("savanna.run_seconds", nil)
	e.hAttempts = e.Metrics.Histogram("savanna.run_attempts", []float64{1, 2, 3, 5, 8, 13})
	cluster := hpcsim.NewCluster(sim, hpcsim.ClusterConfig{Nodes: nodes}, clusterSeed+1)
	cluster.SetMetrics(e.Metrics)
	cluster.SetEvents(e.Events)
	if e.Failures.MTTF > 0 {
		fcfg := e.Failures
		if fcfg.Horizon <= 0 {
			fcfg.Horizon = walltime
		}
		hpcsim.NewFailureInjector(cluster, fcfg, clusterSeed+2)
	}
	out := &AllocationOutcome{}

	ctx := e.campaignCtx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, allocSpan := e.Tracer.Start(ctx, "savanna.alloc",
		telemetry.Int("nodes", nodes), telemetry.String("discipline", string(d)))
	e.Events.Append(eventlog.Info, eventlog.AllocStart, "", allocSpan.ID(),
		telemetry.Int("nodes", nodes), telemetry.Int("pending", len(runs)))
	if e.Probe != nil {
		e.Probe(sim, cluster)
	}

	st := &allocState{pending: append([]cheetah.Run(nil), runs...), out: out}
	var started float64
	_, err := cluster.Submit(hpcsim.JobSpec{
		Name:     "pilot",
		Nodes:    nodes,
		Walltime: walltime,
		OnStart: func(a *hpcsim.Allocation) {
			started = sim.Now()
			switch d {
			case Dynamic:
				e.runDynamic(ctx, a, st)
			case SetSynchronized:
				e.runSets(ctx, a, st)
			}
		},
	})
	if err != nil {
		allocSpan.End(telemetry.String("error", err.Error()))
		return nil, err
	}
	sim.Run()
	allocSpan.End(telemetry.Int("completed", len(out.Completed)), telemetry.Int("killed", out.Killed))
	e.Events.Append(eventlog.Info, eventlog.AllocDone, "", allocSpan.ID(),
		telemetry.Int("completed", len(out.Completed)), telemetry.Int("killed", out.Killed))
	e.clockBase = base + sim.Now()
	end := started + walltime
	if len(st.pending) == 0 && out.Killed == 0 {
		// Finished early; measure to the last busy moment.
		_, last := cluster.Util().Span()
		if last > started {
			end = last
		}
	}
	out.WallSeconds = end - started
	out.Utilization = cluster.Util().UtilizationFraction(nodes, started, end)
	out.Timeline = cluster.Util().Timeline(started, end, 48)
	return out, nil
}

// allocState is one allocation's scheduling state: the work queue, the
// outcome under construction, and the count of retries parked on virtual
// timers — the allocation must not release while one is still pending.
type allocState struct {
	pending []cheetah.Run
	out     *AllocationOutcome
	waiting int
}

// simDisposition is how one simulated attempt ended, from the scheduler's
// point of view.
type simDisposition int

const (
	// simCompleted: the run finished; it leaves the campaign.
	simCompleted simDisposition = iota
	// simRequeueNow: infrastructure cut the attempt off (node failure,
	// walltime); requeue immediately, no attempt consumed.
	simRequeueNow
	// simRetryAfter: the attempt failed transiently; requeue after the
	// backoff delay elapses in virtual time.
	simRetryAfter
	// simFailed: terminal failure (budget exhausted, permanent class, or
	// quarantined); the run must not be resubmitted.
	simFailed
)

// noteOutcome tallies a terminal outcome, emitting the campaign-abort event
// when this outcome trips the stop condition.
func (e *SimEngine) noteOutcome(kind string) {
	if e.rc.NoteOutcome(kind) {
		reason, _ := e.rc.Aborted()
		e.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, 0)
	}
}

// nextPending pops the next runnable pending run, disposing quarantined
// sweep points as terminal failures along the way. When the campaign abort
// latch has tripped the queue is cleared untallied — RunToCompletion
// accounts the skips once, against the full remaining set.
func (e *SimEngine) nextPending(st *allocState) (cheetah.Run, bool) {
	if _, aborted := e.rc.Aborted(); aborted {
		st.pending = nil
		return cheetah.Run{}, false
	}
	for len(st.pending) > 0 {
		run := st.pending[0]
		st.pending = st.pending[1:]
		point := PointKey(run)
		if e.rc.Quarantine().Allow(point) {
			return run, true
		}
		e.journal(run.ID, point, e.attempts[run.ID], resilience.AttemptQuarantined, "", nil)
		e.noteOutcome(resilience.OutcomeQuarantined)
		e.mQuarantined.Inc()
		e.mFailed.Inc()
		e.Events.Append(eventlog.Error, eventlog.RunQuarantined, "sweep point "+point+" quarantined", 0,
			telemetry.String("run", run.ID), telemetry.String("point", point))
		st.out.Failed = append(st.out.Failed, run)
	}
	return cheetah.Run{}, false
}

// startSimRun launches one run on a node with full observability: a
// "savanna.run" span under the allocation, run.start and terminal journal
// events, the attempt journal, and the engine counters — all stamped in
// virtual time by the engine's clock. done receives the disposition after
// the bookkeeping; for simRetryAfter, delay is the backoff in (virtual)
// seconds.
func (e *SimEngine) startSimRun(ctx context.Context, a *hpcsim.Allocation, run cheetah.Run, nid int, dur float64, done func(disp simDisposition, delay float64)) {
	point := PointKey(run)
	attempt := e.attempts[run.ID] + 1
	e.attempts[run.ID] = attempt
	_, span := e.Tracer.Start(ctx, "savanna.run",
		telemetry.String("run", run.ID), telemetry.Int("node", nid))
	e.Events.Append(eventlog.Info, eventlog.RunStart, "", span.ID(),
		telemetry.String("run", run.ID), telemetry.Int("node", nid))
	e.journal(run.ID, point, attempt, resilience.AttemptStart, "", nil)
	var task *hpcsim.Task
	task, err := a.RunTask(run.ID, nid, dur, func(ok bool) {
		// Every attempt completion is a history sampling opportunity; the
		// ring throttles to its virtual-time cadence. Deferred so the sample
		// sees this attempt's counter updates.
		defer e.sampleHistory()
		if !ok {
			// Infrastructure kill: the attempt is refunded — a node failure
			// or walltime cut says nothing about the run itself.
			reason := "killed"
			if task != nil && task.KillReason != "" {
				reason = task.KillReason
			}
			e.attempts[run.ID] = attempt - 1
			e.journal(run.ID, point, attempt, resilience.AttemptKilled, resilience.ClassTransient, fmt.Errorf("%s", reason))
			e.mKilled.Inc()
			span.End(telemetry.String("status", "killed"), telemetry.String("reason", reason))
			e.Events.Append(eventlog.Warn, eventlog.RunKilled, reason, span.ID(),
				telemetry.String("run", run.ID))
			done(simRequeueNow, 0)
			return
		}
		var ferr error
		if e.FaultModel != nil {
			ferr = e.FaultModel(run, attempt, e.faultRNG(run, attempt))
		}
		if ferr == nil {
			e.rc.Quarantine().NoteSuccess(point)
			e.journal(run.ID, point, attempt, resilience.AttemptSuccess, "", nil)
			e.noteOutcome(resilience.OutcomeSucceeded)
			e.mExecuted.Inc()
			e.hRunSecs.Observe(dur)
			e.hAttempts.Observe(float64(attempt))
			span.End(telemetry.String("status", "succeeded"), telemetry.Int("attempts", attempt))
			e.Events.Append(eventlog.Info, eventlog.RunSucceeded, "", span.ID(),
				telemetry.String("run", run.ID))
			done(simCompleted, 0)
			return
		}
		class := resilience.Classify(ferr)
		e.journal(run.ID, point, attempt, resilience.AttemptFailure, class, ferr)
		if e.rc.Quarantine().NoteFailure(point) {
			e.journal(run.ID, point, attempt, resilience.AttemptQuarantined, class, ferr)
			e.noteOutcome(resilience.OutcomeQuarantined)
			e.mQuarantined.Inc()
			e.mFailed.Inc()
			e.hAttempts.Observe(float64(attempt))
			span.End(telemetry.String("status", "failed"), telemetry.Bool("quarantined", true),
				telemetry.Int("attempts", attempt))
			e.Events.Append(eventlog.Error, eventlog.RunQuarantined, ferr.Error(), span.ID(),
				telemetry.String("run", run.ID), telemetry.String("point", point),
				telemetry.Int("attempts", attempt))
			done(simFailed, 0)
			return
		}
		if class.Retryable() && attempt < e.rc.Attempts() {
			delay := e.rc.Backoff(e.prevDelay[run.ID])
			e.prevDelay[run.ID] = delay
			e.rc.NoteRetry()
			e.mRetries.Inc()
			span.End(telemetry.String("status", "retry"), telemetry.Int("attempts", attempt))
			e.Events.Append(eventlog.Warn, eventlog.RunRetry, ferr.Error(), span.ID(),
				telemetry.String("run", run.ID), telemetry.Int("attempt", attempt),
				telemetry.String("class", string(class)), telemetry.Int("delay_ms", int(delay.Milliseconds())))
			done(simRetryAfter, delay.Seconds())
			return
		}
		e.noteOutcome(resilience.OutcomeFailed)
		e.mFailed.Inc()
		e.hAttempts.Observe(float64(attempt))
		span.End(telemetry.String("status", "failed"), telemetry.String("error", ferr.Error()),
			telemetry.Int("attempts", attempt))
		e.Events.Append(eventlog.Error, eventlog.RunFailed, ferr.Error(), span.ID(),
			telemetry.String("run", run.ID), telemetry.Int("attempts", attempt))
		done(simFailed, 0)
	})
	if err != nil {
		// Callers only target idle nodes, so this is defensive: end the
		// span rather than leaking it open.
		span.End(telemetry.String("error", err.Error()))
	}
}

// dispose folds one attempt's disposition back into the allocation state and
// kicks the scheduler (assign for dynamic, the barrier check for sets).
func (e *SimEngine) dispose(st *allocState, run cheetah.Run, disp simDisposition, delay float64, kick func()) {
	switch disp {
	case simCompleted:
		st.out.Completed = append(st.out.Completed, run)
	case simRequeueNow:
		st.out.Killed++
		st.pending = append(st.pending, run) // back to the queue
	case simRetryAfter:
		// Park the retry on a virtual timer; waiting keeps the allocation
		// alive (and the set barrier honest) until it fires.
		st.waiting++
		e.sim.After(delay, func() {
			st.waiting--
			st.pending = append(st.pending, run)
			kick()
		})
	case simFailed:
		st.out.Failed = append(st.out.Failed, run)
	}
	kick()
}

// runDynamic implements the Savanna pilot: every idle node pulls the next
// pending run immediately.
func (e *SimEngine) runDynamic(ctx context.Context, a *hpcsim.Allocation, st *allocState) {
	var assign func()
	assign = func() {
		if !a.Active() {
			return
		}
		for _, nid := range a.IdleNodes() {
			run, ok := e.nextPending(st)
			if !ok {
				break
			}
			e.startSimRun(ctx, a, run, nid, e.runDuration(run), func(disp simDisposition, delay float64) {
				// Reassign on every disposition: after a node failure the
				// allocation lives on degraded and other idle nodes should
				// pick the run back up (assign is a no-op once released).
				e.dispose(st, run, disp, delay, assign)
			})
		}
		if len(st.pending) == 0 && st.waiting == 0 && len(a.IdleNodes()) == len(a.Nodes()) {
			a.Release()
		}
	}
	assign()
}

// runSets implements the baseline: sets sized to the node count, with an
// explicit barrier — the next set starts only when every run of the current
// set has finished. A retry parked on a virtual timer re-enters the queue
// and rides a later set; the barrier waits for it rather than releasing a
// half-finished allocation.
func (e *SimEngine) runSets(ctx context.Context, a *hpcsim.Allocation, st *allocState) {
	outstanding := 0
	var nextSet func()
	nextSet = func() {
		if !a.Active() || outstanding > 0 {
			return
		}
		nodes := a.Nodes()
		if len(st.pending) == 0 || len(nodes) == 0 {
			if st.waiting == 0 || len(nodes) == 0 {
				a.Release()
			}
			return // waiting > 0: a parked retry will call nextSet again
		}
		var set []cheetah.Run
		for len(set) < len(nodes) {
			run, ok := e.nextPending(st)
			if !ok {
				break
			}
			set = append(set, run)
		}
		if len(set) == 0 {
			nextSet() // everything pending was quarantined away
			return
		}
		outstanding = len(set)
		for i, run := range set {
			run := run
			e.startSimRun(ctx, a, run, nodes[i], e.runDuration(run), func(disp simDisposition, delay float64) {
				// nextSet is the kick: safe mid-set (the outstanding guard
				// makes it a no-op) and exactly what a parked retry needs to
				// restart a drained barrier.
				e.dispose(st, run, disp, delay, nextSet)
				outstanding--
				if outstanding == 0 {
					nextSet() // the barrier
				}
			})
		}
	}
	nextSet()
}

// CampaignOutcome aggregates a to-completion execution across repeated
// allocations — the paper's resubmission loop.
type CampaignOutcome struct {
	// Allocations is the number of batch allocations consumed.
	Allocations int
	// PerAllocationCompleted is how many runs each allocation finished —
	// the Fig. 7 metric ("parameters explored in 2-hour allocations").
	PerAllocationCompleted []int
	// MeanUtilization averages node utilisation across allocations.
	MeanUtilization float64
	// TotalWallSeconds sums allocation wall time.
	TotalWallSeconds float64
	// FirstTimeline is the Fig. 6 busy-node timeline of the first
	// allocation.
	FirstTimeline []hpcsim.TimelinePoint
	// Failed lists run IDs that ended terminally unsuccessful (retry budget
	// exhausted, permanent failure, quarantined).
	Failed []string
	// Report is the campaign's completeness accounting — every run lands in
	// exactly one bucket even when the campaign aborts early.
	Report resilience.CompletenessReport
}

// RunToCompletion repeatedly submits allocations until every run has
// completed (or maxAllocations is hit, returning an error). Each allocation
// resumes with exactly the runs that have not succeeded — Savanna's
// "simply re-submit the SweepGroup" behaviour.
func (e *SimEngine) RunToCompletion(runs []cheetah.Run, nodes int, walltime float64, d Discipline, seed int64, maxAllocations int) (*CampaignOutcome, error) {
	// The campaign span brackets every allocation on the campaign's
	// continuous virtual timeline (clockBase carries time across the
	// per-allocation sims, which each restart at zero).
	e.setVirtualClock(func() float64 { return e.clockBase })
	ctx, campaignSpan := e.Tracer.Start(context.Background(), "savanna.campaign",
		telemetry.String("discipline", string(d)), telemetry.Int("runs", len(runs)))
	e.Events.Append(eventlog.Info, eventlog.CampaignStart, "", campaignSpan.ID(),
		telemetry.Int("runs", len(runs)), telemetry.String("discipline", string(d)))
	e.campaignCtx = ctx
	defer func() { e.campaignCtx = nil }()
	// One resilience runtime spans the whole resubmission loop: attempt
	// counts, quarantine decisions and the journal carry across allocations.
	e.resetResilience(campaignSpan.ID())
	defer e.closeResilience()

	done := map[string]bool{}
	outcome := &CampaignOutcome{}
	var utils []float64
	remaining := append([]cheetah.Run(nil), runs...)
	for alloc := 0; len(remaining) > 0; alloc++ {
		if alloc >= maxAllocations {
			campaignSpan.End(telemetry.String("error", "allocation budget exhausted"))
			return nil, fmt.Errorf("savanna: campaign incomplete after %d allocations (%d runs left)", maxAllocations, len(remaining))
		}
		rc := e.rc
		res, err := e.RunAllocation(remaining, nodes, walltime, d, seed+int64(alloc)*7919)
		if err != nil {
			campaignSpan.End(telemetry.String("error", err.Error()))
			return nil, err
		}
		outcome.Allocations++
		outcome.PerAllocationCompleted = append(outcome.PerAllocationCompleted, len(res.Completed))
		outcome.TotalWallSeconds += res.WallSeconds
		utils = append(utils, res.Utilization)
		if alloc == 0 {
			outcome.FirstTimeline = res.Timeline
		}
		for _, run := range res.Completed {
			done[run.ID] = true
		}
		// Terminal failures are done with the campaign too — resubmitting
		// them would burn allocations on runs the breaker already judged.
		for _, run := range res.Failed {
			done[run.ID] = true
			outcome.Failed = append(outcome.Failed, run.ID)
		}
		var next []cheetah.Run
		for _, run := range remaining {
			if !done[run.ID] {
				next = append(next, run)
			}
		}
		if reason, aborted := rc.Aborted(); aborted {
			// Graceful abort: the never-to-be-attempted remainder is
			// journaled and tallied as skipped, once, here.
			for _, run := range next {
				e.journal(run.ID, PointKey(run), e.attempts[run.ID], resilience.AttemptSkipped, "", nil)
				rc.NoteOutcome(resilience.OutcomeSkipped)
			}
			outcome.Report = rc.Report(len(runs))
			campaignSpan.End(telemetry.String("error", "aborted: "+reason))
			e.Events.Append(eventlog.Info, eventlog.CampaignDone, "aborted", campaignSpan.ID(),
				telemetry.Int("allocations", outcome.Allocations))
			return outcome, nil
		}
		if len(next) == len(remaining) {
			campaignSpan.End(telemetry.String("error", "no progress"))
			return nil, fmt.Errorf("savanna: allocation %d made no progress", alloc)
		}
		remaining = next
	}
	var sum float64
	for _, u := range utils {
		sum += u
	}
	if len(utils) > 0 {
		outcome.MeanUtilization = sum / float64(len(utils))
	}
	outcome.Report = e.rc.Report(len(runs))
	campaignSpan.End(telemetry.Int("allocations", outcome.Allocations))
	e.Events.Append(eventlog.Info, eventlog.CampaignDone, "", campaignSpan.ID(),
		telemetry.Int("allocations", outcome.Allocations))
	return outcome, nil
}

package savanna

import (
	"context"
	"errors"
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

	// clockBase accumulates virtual seconds across allocations so each
	// fresh Sim (which starts at 0) continues the campaign's timeline.
	clockBase float64
	// campaignCtx parents allocation spans under RunToCompletion's
	// campaign span.
	campaignCtx context.Context
	// lc decides every run, for as long as one resilience runtime lives:
	// RunToCompletion installs one for the whole resubmission loop, a
	// standalone RunAllocation gets its own. runs holds each run's lifecycle
	// state across allocations (attempt count, last backoff), rec writes the
	// journal, group is the one the (single-goroutine) simulation posts
	// through.
	lc      *Lifecycle
	runs    map[string]*RunState
	rec     *Recorder
	group   Group
	mKilled *telemetry.Counter
	// sim is the current allocation's event queue (for virtual-time backoff).
	sim *hpcsim.Sim
}

// openLifecycle installs a fresh resilience runtime (a nil Resilience is the
// zero Config: single attempt, no quarantine), its recorder (events under
// span) and lifecycle; closeLifecycle ends them.
func (e *SimEngine) openLifecycle(span int64) {
	rc := e.Resilience.Controller()
	e.lc = &Lifecycle{Span: span, Controller: rc, Events: e.Events,
		Metrics: NewInstruments(e.Metrics, "savanna", "runs_executed_total")}
	e.mKilled = e.Metrics.Counter("savanna.runs_killed_total")
	e.rec = OpenRecorder(RecorderConfig{Engine: "sim", Span: span, Journal: rc.Journal(),
		Events: e.Events, Metrics: e.Metrics})
	e.runs = map[string]*RunState{}
}

// closeLifecycle closes the recorder — on return the journal is complete
// and fsynced — and uninstalls the campaign's runtime.
func (e *SimEngine) closeLifecycle() {
	e.rec.Close()
	e.rec, e.lc, e.runs = nil, nil, nil
}

// state returns run's lifecycle state, tracking it from first sight.
func (e *SimEngine) state(run cheetah.Run) *RunState {
	r := e.runs[run.ID]
	if r == nil {
		st := NewRunState(run)
		r = &st
		e.runs[run.ID] = r
	}
	return r
}

// rng derives the deterministic random stream of one run: its duration
// (attempt 0) or the fault decision of one attempt.
func (e *SimEngine) rng(run cheetah.Run, attempt int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(run.ID))
	return rand.New(rand.NewSource(e.Seed ^ int64(h.Sum64()) ^ int64(attempt)*1_000_003))
}

// setVirtualClock points the engine's tracer and event log — and the
// journal stamps of the lifecycle installed, if one is — at the virtual
// instant now() seconds past the epoch.
func (e *SimEngine) setVirtualClock(now func() float64) {
	at := telemetry.ClockFunc(func() time.Time {
		return time.Unix(0, 0).Add(time.Duration(now() * float64(time.Second)))
	})
	e.Tracer.SetClock(at)
	e.Events.SetClock(at)
	if e.lc != nil {
		e.lc.Controller.SetNow(at)
	}
}

// runDuration derives the deterministic duration of a run.
func (e *SimEngine) runDuration(run cheetah.Run) float64 {
	d := e.Durations(run, e.rng(run, 0))
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
	sim := hpcsim.New()
	base := e.clockBase
	if e.lc == nil {
		// Standalone allocation (not under RunToCompletion): own runtime.
		e.openLifecycle(0)
		defer e.closeLifecycle()
	}
	e.setVirtualClock(func() float64 { return base + sim.Now() })
	e.sim = sim
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
// outcome under construction, the count of retries parked on virtual timers —
// the allocation must not release while one is still pending — and kick, the
// discipline's scheduler step (assign for dynamic, the barrier check for
// sets), run whenever the queue or a node changes.
type allocState struct {
	pending []cheetah.Run
	out     *AllocationOutcome
	waiting int
	kick    func()
}

// nextPending pops the next runnable pending run; runs the quarantine gate
// refuses end here as terminal failures along the way. When the campaign
// abort latch has tripped the queue is cleared untallied — RunToCompletion
// accounts the skips once, against the full remaining set.
func (e *SimEngine) nextPending(st *allocState) (cheetah.Run, bool) {
	if _, aborted := e.lc.Controller.Aborted(); aborted {
		st.pending = nil
		return cheetah.Run{}, false
	}
	for len(st.pending) > 0 {
		run := st.pending[0]
		st.pending = st.pending[1:]
		r := e.state(run)
		if e.lc.Admit(r, &e.group, "") {
			return run, true
		}
		e.rec.Post(&e.group)
		e.lc.Conclude(r, "")
		st.out.Failed = append(st.out.Failed, run)
	}
	return cheetah.Run{}, false
}

// startSimRun places one attempt of run on a node: a "savanna.run" span
// under the allocation, the run.start event, and — when the simulated task
// ends — the lifecycle's decision folded back into the allocation state,
// everything stamped in virtual time by the engine's clock. over, when
// non-nil, runs once the attempt is accounted for, before the scheduler is
// kicked.
func (e *SimEngine) startSimRun(ctx context.Context, a *hpcsim.Allocation, st *allocState, run cheetah.Run, nid int, over func()) {
	r := e.state(run)
	dur := e.runDuration(run)
	_, span := e.Tracer.Start(ctx, "savanna.run",
		telemetry.String("run", run.ID), telemetry.Int("node", nid))
	r.Span = span
	e.Events.Append(eventlog.Info, eventlog.RunStart, "", span.ID(),
		telemetry.String("run", run.ID), telemetry.Int("node", nid))
	e.lc.Begin(r, &e.group)
	e.rec.Post(&e.group)
	var task *hpcsim.Task
	task, err := a.RunTask(run.ID, nid, dur, func(ok bool) {
		// Kick on every outcome: after a node failure the allocation lives on
		// degraded and other idle nodes should pick the run back up.
		defer st.kick()
		if over != nil {
			defer over()
		}
		if !ok {
			// Infrastructure kill: the attempt is refunded — a node failure
			// or walltime cut says nothing about the run itself — and the run
			// goes straight back to the queue.
			reason := "killed"
			if task != nil && task.KillReason != "" {
				reason = task.KillReason
			}
			e.lc.Void(r, &e.group, resilience.AttemptKilled, "", errors.New(reason))
			e.rec.Post(&e.group)
			e.mKilled.Inc()
			span.End(telemetry.String("status", "killed"), telemetry.String("reason", reason))
			r.Span = nil
			e.Events.Append(eventlog.Warn, eventlog.RunKilled, reason, span.ID(),
				telemetry.String("run", run.ID))
			st.out.Killed++
			st.pending = append(st.pending, run)
			return
		}
		var ferr error
		if e.FaultModel != nil {
			attempt := r.Result.Attempts + 1
			ferr = e.FaultModel(run, attempt, e.rng(run, attempt))
		}
		d := e.lc.Settle(r, &e.group, AttemptResult{Err: ferr, Class: resilience.Classify(ferr),
			Elapsed: time.Duration(dur * float64(time.Second))}, false)
		e.rec.Post(&e.group)
		if d.Terminal {
			e.lc.Conclude(r, "")
		}
		switch {
		case !d.Terminal:
			span.End(telemetry.String("status", "retry"), telemetry.Int("attempts", r.Result.Attempts))
			r.Span = nil
			// Park the retry on a virtual timer; waiting keeps the allocation
			// alive (and the set barrier honest) until it fires.
			st.waiting++
			e.sim.After(d.Delay.Seconds(), func() {
				st.waiting--
				st.pending = append(st.pending, run)
				st.kick()
			})
		case ferr == nil:
			st.out.Completed = append(st.out.Completed, run)
		default:
			// Terminal: budget exhausted, permanent class, or quarantined. The
			// run must not be resubmitted.
			st.out.Failed = append(st.out.Failed, run)
		}
	})
	if err != nil {
		// Callers only target idle nodes, so this is defensive: end the
		// span rather than leaking it open.
		span.End(telemetry.String("error", err.Error()))
	}
}

// runDynamic implements the Savanna pilot: every idle node pulls the next
// pending run immediately.
func (e *SimEngine) runDynamic(ctx context.Context, a *hpcsim.Allocation, st *allocState) {
	st.kick = func() {
		if !a.Active() {
			return
		}
		for _, nid := range a.IdleNodes() {
			run, ok := e.nextPending(st)
			if !ok {
				break
			}
			e.startSimRun(ctx, a, st, run, nid, nil)
		}
		if len(st.pending) == 0 && st.waiting == 0 && len(a.IdleNodes()) == len(a.Nodes()) {
			a.Release()
		}
	}
	st.kick()
}

// runSets implements the baseline: sets sized to the node count, with an
// explicit barrier — the next set starts only when every run of the current
// set has finished. A retry parked on a virtual timer re-enters the queue
// and rides a later set; the barrier waits for it rather than releasing a
// half-finished allocation.
func (e *SimEngine) runSets(ctx context.Context, a *hpcsim.Allocation, st *allocState) {
	outstanding := 0
	// The kick is safe mid-set (the outstanding guard makes it a no-op) and
	// exactly what a parked retry needs to restart a drained barrier.
	st.kick = func() {
		if !a.Active() || outstanding > 0 {
			return
		}
		nodes := a.Nodes()
		if len(st.pending) == 0 || len(nodes) == 0 {
			if st.waiting == 0 || len(nodes) == 0 {
				a.Release()
			}
			return // waiting > 0: a parked retry will kick again
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
			st.kick() // everything pending was quarantined away
			return
		}
		outstanding = len(set)
		for i, run := range set {
			// The last attempt of the set to end opens the barrier: the kick
			// that follows starts the next set.
			e.startSimRun(ctx, a, st, run, nodes[i], func() { outstanding-- })
		}
	}
	st.kick()
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
	e.openLifecycle(campaignSpan.ID())
	defer e.closeLifecycle()

	outcome := &CampaignOutcome{}
	var utils []float64
	remaining := append([]cheetah.Run(nil), runs...)
	for alloc := 0; len(remaining) > 0; alloc++ {
		if alloc >= maxAllocations {
			campaignSpan.End(telemetry.String("error", "allocation budget exhausted"))
			return nil, fmt.Errorf("savanna: campaign incomplete after %d allocations (%d runs left)", maxAllocations, len(remaining))
		}
		rc := e.lc.Controller
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
		for _, run := range res.Failed {
			outcome.Failed = append(outcome.Failed, run.ID)
		}
		// What is left is what has not ended. Terminal failures are done with
		// the campaign too — resubmitting them would burn allocations on runs
		// the breaker already judged.
		var next []cheetah.Run
		for _, run := range remaining {
			if !e.state(run).Terminal() {
				next = append(next, run)
			}
		}
		if reason, aborted := rc.Aborted(); aborted {
			// Graceful abort: the never-to-be-attempted remainder is
			// journaled and tallied as skipped, once, here.
			for _, run := range next {
				e.lc.Skip(e.state(run), &e.group)
			}
			e.rec.Post(&e.group)
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
	outcome.Report = e.lc.Controller.Report(len(runs))
	campaignSpan.End(telemetry.Int("allocations", outcome.Allocations))
	e.Events.Append(eventlog.Info, eventlog.CampaignDone, "", campaignSpan.ID(),
		telemetry.Int("allocations", outcome.Allocations))
	return outcome, nil
}

// Package savanna reimplements the execution half of the paper's
// Cheetah/Savanna suite (Section IV): it consumes a campaign manifest (the
// interoperability layer) and runs every enumerated run, either in-process
// on real goroutine workers or on the hpcsim simulated cluster at Summit
// scale.
//
// Two scheduling disciplines are provided because their contrast is the
// paper's Fig. 6/7 result: the original workflow's set-synchronized
// submission ("all experiments in a set must be complete before the next
// set is run — straggler processes can severely limit performance") versus
// Savanna's dynamic pilot resource manager, which "dynamically schedules
// and tracks runs on the allocated nodes, no longer requiring synchronizing
// runs and leading to better resource utilization".
package savanna

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Executor runs one campaign run in-process.
type Executor interface {
	// Execute performs the run; a non-nil error marks it failed. Executors
	// classify their failures with the resilience.Mark* wrappers; an
	// unmarked error is treated as transient.
	Execute(run cheetah.Run) error
}

// ContextExecutor is an Executor that honours cancellation: the engine
// prefers ExecuteContext when available, passing a context that carries the
// per-run deadline and the campaign's cancellation. Executors that spawn
// processes must kill them when the context ends — a wedged child must not
// hang its worker forever.
type ContextExecutor interface {
	Executor
	ExecuteContext(ctx context.Context, run cheetah.Run) error
}

// PointKey renders a run's sweep point as a stable string — the quarantine
// identity shared by every attempt at that parameter combination.
func PointKey(run cheetah.Run) string {
	if len(run.Params) == 0 {
		return run.ID
	}
	keys := make([]string, 0, len(run.Params))
	for k := range run.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(run.Params[k])
	}
	return b.String()
}

// FuncRegistry maps app names to Go functions — the in-process executor
// backend ("this design allows us to import existing workflow tools" —
// here, any Go callable becomes an app).
type FuncRegistry struct {
	mu   sync.RWMutex
	apps map[string]func(params map[string]string) error
	app  string
}

// NewFuncRegistry builds a registry bound to the campaign's app name.
func NewFuncRegistry(app string) *FuncRegistry {
	return &FuncRegistry{apps: map[string]func(map[string]string) error{}, app: app}
}

// Register adds an app implementation.
func (r *FuncRegistry) Register(name string, fn func(params map[string]string) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps[name] = fn
}

// Execute implements Executor.
func (r *FuncRegistry) Execute(run cheetah.Run) error {
	r.mu.RLock()
	fn := r.apps[r.app]
	r.mu.RUnlock()
	if fn == nil {
		// No amount of retrying conjures an implementation.
		return resilience.MarkPermanent(fmt.Errorf("savanna: no implementation registered for app %q", r.app))
	}
	return fn(run.Params)
}

// RunResult is the outcome of one executed run.
type RunResult struct {
	Run     cheetah.Run
	Status  provenance.Status
	Seconds float64
	Err     string
	// Cached marks a run satisfied from the memo's action cache — nothing
	// was executed.
	Cached bool
	// Attempts is how many executions the run consumed (1 for first-try
	// success, 0 for cached or skipped runs).
	Attempts int
	// Quarantined marks a run terminally side-lined by the circuit breaker:
	// its sweep point kept failing and was removed from the retry budget.
	Quarantined bool
}

// LocalEngine executes manifests in-process with a bounded worker pool (the
// "nodes" of a local pilot).
type LocalEngine struct {
	// Executor performs each run.
	Executor Executor
	// Workers bounds concurrency (≥1).
	Workers int
	// Prov, when non-nil, receives a provenance record per run, stamped
	// with the campaign id — the campaign-knowledge tier in action.
	Prov *provenance.Store
	// CampaignDir, when non-empty, receives status updates in the Cheetah
	// directory schema: one line per transition appended to its status.log,
	// fsynced once when the campaign returns.
	CampaignDir string
	// Retries re-executes a failed run up to this many extra times before
	// recording it failed — the legacy knob, equivalent to a Resilience
	// config of {Retry: {MaxAttempts: Retries + 1}}. Ignored when Resilience
	// is set.
	Retries int
	// Resilience, when non-nil, arms the full fault-tolerance stack:
	// classified retries with decorrelated-jitter backoff, per-run
	// deadlines, sweep-point quarantine, the journaled attempt log that
	// fairctl resume replays, and the campaign-level stop condition.
	Resilience *resilience.Config
	// Memo, when non-nil, memoizes whole runs: a run whose (component
	// digest, sweep point, input digests) recipe is already cached is
	// skipped entirely, and successful executions are recorded for the
	// next campaign re-run or resume.
	Memo *Memo
	// Tracer, when non-nil, records one "savanna.campaign" span per
	// RunAll/RunSets call and one "savanna.run" span per run under it
	// (annotated cached/failed), using the tracer's clock.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives the engine instruments:
	// savanna.runs_executed_total / runs_cached_total / runs_failed_total
	// and the savanna.run_seconds histogram. Both telemetry fields left nil
	// cost the engine only nil checks.
	Metrics *telemetry.Registry
	// Events, when non-nil, journals the campaign's life cycle —
	// campaign.start/done, run.start and the terminal run.succeeded /
	// run.cached / run.failed — each correlated to its span, which is what
	// the monitor consumes for progress, stragglers and stalls.
	Events *eventlog.Log

	// attempt numbers provenance records so resubmitted runs get fresh IDs
	// (provenance is append-only; each attempt is its own record).
	attempt int64
	// probe is the recorder's test seam (RecorderConfig.Probe).
	probe func(RecorderStage, []resilience.AttemptRecord) bool

	// telOnce resolves the instruments once so executeOne never touches the
	// registry lock.
	telOnce      sync.Once
	mExecuted    *telemetry.Counter
	mCached      *telemetry.Counter
	mFailed      *telemetry.Counter
	mRetries     *telemetry.Counter
	mQuarantined *telemetry.Counter
	hRunSecs     *telemetry.Histogram
	hAttempts    *telemetry.Histogram
	hCPUSecs     *telemetry.Histogram
	hMaxRSS      *telemetry.Histogram
}

// telemetryInit resolves the engine's instruments (no-ops when Metrics is
// nil: nil instruments swallow updates).
func (e *LocalEngine) telemetryInit() {
	e.telOnce.Do(func() {
		e.mExecuted = e.Metrics.Counter("savanna.runs_executed_total")
		e.mCached = e.Metrics.Counter("savanna.runs_cached_total")
		e.mFailed = e.Metrics.Counter("savanna.runs_failed_total")
		e.mRetries = e.Metrics.Counter("savanna.retries_total")
		e.mQuarantined = e.Metrics.Counter("savanna.quarantined_total")
		e.hRunSecs = e.Metrics.Histogram("savanna.run_seconds", nil)
		e.hAttempts = e.Metrics.Histogram("savanna.run_attempts", []float64{1, 2, 3, 5, 8, 13})
		e.hCPUSecs = e.Metrics.Histogram("savanna.run_cpu_seconds", nil)
		e.hMaxRSS = e.Metrics.Histogram("savanna.run_max_rss_bytes", RSSBuckets)
	})
}

// validate checks the engine configuration.
func (e *LocalEngine) validate() error {
	if e.Executor == nil {
		return fmt.Errorf("savanna: engine needs an executor")
	}
	if e.Workers < 1 {
		return fmt.Errorf("savanna: engine needs ≥1 worker")
	}
	return nil
}

// controller builds the campaign's resilience runtime. Without an explicit
// Resilience config the legacy Retries knob is honoured: immediate retries,
// no quarantine, no journal, no stop condition.
func (e *LocalEngine) controller() *resilience.Controller {
	if e.Resilience != nil {
		return resilience.NewController(*e.Resilience)
	}
	return resilience.NewController(resilience.Config{
		Retry: resilience.RetryPolicy{MaxAttempts: e.Retries + 1},
	})
}

// openRecorder starts the campaign's recorder over the engine's sinks.
func (e *LocalEngine) openRecorder(campaign string, span *telemetry.Span, rc *resilience.Controller) *Recorder {
	return OpenRecorder(RecorderConfig{Engine: "local", Campaign: campaign, Span: span.ID(),
		Journal: rc.Journal(), Dir: e.CampaignDir, Prov: e.Prov, Events: e.Events, Metrics: e.Metrics, Probe: e.probe})
}

// RunAll executes the given runs with dynamic scheduling: workers pull the
// next run as soon as they free up. Results are returned in the input
// order.
func (e *LocalEngine) RunAll(campaign string, runs []cheetah.Run) ([]RunResult, error) {
	results, _, err := e.RunCampaign(context.Background(), campaign, runs)
	return results, err
}

// RunCampaign is RunAll with the full fault-tolerance contract surfaced: the
// context cancels the campaign (in-flight runs are killed, undispatched runs
// journal as skipped — exactly the state "fairctl resume" restarts from),
// and the returned CompletenessReport accounts for every run whether or not
// the campaign ran to the end.
func (e *LocalEngine) RunCampaign(ctx context.Context, campaign string, runs []cheetah.Run) ([]RunResult, resilience.CompletenessReport, error) {
	if err := e.validate(); err != nil {
		return nil, resilience.CompletenessReport{}, err
	}
	e.telemetryInit()
	rc := e.controller()
	ctx, campaignSpan := e.Tracer.Start(ctx, "savanna.campaign",
		telemetry.String("campaign", campaign),
		telemetry.String("discipline", "dynamic"),
		telemetry.Int("runs", len(runs)))
	e.Events.Append(eventlog.Info, eventlog.CampaignStart, campaign, campaignSpan.ID(),
		telemetry.String("campaign", campaign), telemetry.Int("runs", len(runs)))
	rec := e.openRecorder(campaign, campaignSpan, rc)
	results := make([]RunResult, len(runs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var g Group // this worker's, reused run after run
			for i := range work {
				results[i] = e.executeOne(ctx, campaign, runs[i], rc, rec, &g)
			}
		}()
	}
	var g Group
	for i := range runs {
		if _, aborted := rc.Aborted(); aborted || ctx.Err() != nil {
			results[i] = e.skipOne(campaign, runs[i], rc, rec, &g)
			continue
		}
		work <- i
	}
	close(work)
	wg.Wait()
	report := e.finishCampaign(campaign, campaignSpan, rc, rec, len(runs))
	return results, report, nil
}

// finishCampaign closes the recorder — everything posted is written, the
// status log and the journal are fsynced — then closes the campaign span,
// emits the abort/done events and renders the completeness report (shared by
// both disciplines).
func (e *LocalEngine) finishCampaign(campaign string, span *telemetry.Span, rc *resilience.Controller, rec *Recorder, total int) resilience.CompletenessReport {
	rec.Close()
	if reason, aborted := rc.Aborted(); aborted {
		e.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, span.ID(),
			telemetry.String("campaign", campaign))
	}
	span.End()
	e.Events.Append(eventlog.Info, eventlog.CampaignDone, campaign, span.ID(),
		telemetry.String("campaign", campaign))
	return rc.Report(total)
}

// RunSets executes runs in barrier-synchronized sets of setSize — the
// baseline discipline. All runs of a set must finish before the next set
// starts, so one straggler idles every other worker.
func (e *LocalEngine) RunSets(campaign string, runs []cheetah.Run, setSize int) ([]RunResult, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if setSize < 1 {
		return nil, fmt.Errorf("savanna: set size must be ≥1")
	}
	e.telemetryInit()
	rc := e.controller()
	ctx, campaignSpan := e.Tracer.Start(context.Background(), "savanna.campaign",
		telemetry.String("campaign", campaign),
		telemetry.String("discipline", "set-synchronized"),
		telemetry.Int("runs", len(runs)))
	e.Events.Append(eventlog.Info, eventlog.CampaignStart, campaign, campaignSpan.ID(),
		telemetry.String("campaign", campaign), telemetry.Int("runs", len(runs)))
	rec := e.openRecorder(campaign, campaignSpan, rc)
	results := make([]RunResult, len(runs))
	for lo := 0; lo < len(runs); lo += setSize {
		hi := lo + setSize
		if hi > len(runs) {
			hi = len(runs)
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, e.Workers)
		for i := lo; i < hi; i++ {
			if _, aborted := rc.Aborted(); aborted {
				results[i] = e.skipOne(campaign, runs[i], rc, rec, new(Group))
				continue
			}
			i := i
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				results[i] = e.executeOne(ctx, campaign, runs[i], rc, rec, new(Group))
			}()
		}
		wg.Wait() // the set barrier
	}
	e.finishCampaign(campaign, campaignSpan, rc, rec, len(runs))
	return results, nil
}

// execute performs one attempt, applying the per-run deadline and routing
// through ExecuteContext when the executor supports cancellation.
func (e *LocalEngine) execute(ctx context.Context, run cheetah.Run, rc *resilience.Controller) error {
	if d := rc.RunDeadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if cx, ok := e.Executor.(ContextExecutor); ok {
		return cx.ExecuteContext(ctx, run)
	}
	return e.Executor.Execute(run)
}

// skipOne records a run the campaign never dispatched (abort latch tripped
// or the campaign context was cancelled first). Skipped runs journal as
// skipped and get no status line (they stay pending), so both resume paths —
// the attempt journal and the campaign directory — list them as still owed.
func (e *LocalEngine) skipOne(campaign string, run cheetah.Run, rc *resilience.Controller, rec *Recorder, g *Group) RunResult {
	g.Journal(rc.Record(run.ID, PointKey(run), 0, resilience.AttemptSkipped, "", "", nil))
	rc.NoteOutcome(resilience.OutcomeSkipped)
	e.provenance(g, campaign, run, provenance.StatusSkipped, 0, cas.ActionResult{}, false, ResourceUsage{})
	rec.Post(g)
	return RunResult{Run: run, Status: provenance.StatusSkipped}
}

// executeOne takes one run from memo lookup to its terminal outcome. What
// each step must leave behind goes into g and is posted to the recorder: the
// start of an attempt before it executes, a failed attempt before its
// backoff, the terminal record together with its status line and provenance.
func (e *LocalEngine) executeOne(ctx context.Context, campaign string, run cheetah.Run, rc *resilience.Controller, rec *Recorder, g *Group) RunResult {
	start := time.Now()
	runCtx, span := e.Tracer.Start(ctx, "savanna.run", telemetry.String("run", run.ID))
	e.Events.Append(eventlog.Info, eventlog.RunStart, "", span.ID(), telemetry.String("run", run.ID))
	// Per-run resource sink: the executor accumulates each attempt's rusage
	// into it, and the settled total lands on the span, the cost histograms
	// and the provenance record.
	var usage ResourceUsage
	runCtx = WithResourceSink(runCtx, &usage)
	point := PointKey(run)
	q := rc.Quarantine()

	// Memoized skip path: an unchanged (component, sweep point, inputs)
	// recipe means this run's outputs already exist — record it succeeded
	// without executing anything.
	if e.Memo != nil && e.Memo.validate() == nil {
		if cached, ok := e.Memo.lookup(run); ok {
			elapsed := time.Since(start)
			g.Journal(rc.Record(run.ID, point, 0, resilience.AttemptCached, "", "", nil))
			g.Status(run.ID, cheetah.RunSucceeded)
			e.provenance(g, campaign, run, provenance.StatusSucceeded, elapsed, cached, true, ResourceUsage{})
			rec.Post(g)
			rc.NoteOutcome(resilience.OutcomeCached)
			e.mCached.Inc()
			e.hRunSecs.Observe(elapsed.Seconds())
			span.End(telemetry.Bool("cached", true))
			e.Events.Append(eventlog.Info, eventlog.RunCached, "", span.ID(), telemetry.String("run", run.ID))
			return RunResult{Run: run, Status: provenance.StatusSucceeded, Seconds: elapsed.Seconds(), Cached: true}
		}
	}

	// Quarantine gate: a sweep point already side-lined (by an earlier run at
	// the same point, or restored from a resumed journal) fails without
	// spending an attempt.
	if !q.Allow(point) {
		return e.quarantineOne(campaign, run, span, rc, rec, g, point, 0, nil)
	}

	g.Status(run.ID, cheetah.RunRunning)

	maxAttempts := rc.Attempts()
	var (
		err      error
		recorded cas.ActionResult
		attempt  int
		prev     time.Duration
	)
	for {
		attempt++
		g.Journal(rc.Record(run.ID, point, attempt, resilience.AttemptStart, "", "", nil))
		rec.Post(g)
		err = e.execute(runCtx, run, rc)
		if err == nil && e.Memo != nil && e.Memo.validate() == nil {
			recorded, err = e.Memo.record(run) // a failed record is a failed run: its reuse contract is broken
		}
		if err == nil {
			q.NoteSuccess(point)
			g.Journal(rc.Record(run.ID, point, attempt, resilience.AttemptSuccess, "", "", nil))
			break
		}
		class := resilience.Classify(err)
		g.Journal(rc.Record(run.ID, point, attempt, resilience.AttemptFailure, "", class, err))
		if q.NoteFailure(point) {
			return e.quarantineOne(campaign, run, span, rc, rec, g, point, attempt, err)
		}
		if !class.Retryable() || attempt >= maxAttempts || ctx.Err() != nil {
			break
		}
		rec.Post(g)
		prev = rc.Backoff(prev)
		rc.NoteRetry()
		e.mRetries.Inc()
		e.Events.Append(eventlog.Warn, eventlog.RunRetry, err.Error(), span.ID(),
			telemetry.String("run", run.ID), telemetry.Int("attempt", attempt),
			telemetry.String("class", string(class)), telemetry.Int("delay_ms", int(prev.Milliseconds())))
		// The backoff sleep gets its own child span so critical-path analysis
		// can attribute this dead time to "retry" rather than lumping it into
		// the run's exec time.
		_, waitSpan := e.Tracer.Start(runCtx, "savanna.retry_wait",
			telemetry.String("run", run.ID), telemetry.Int("attempt", attempt),
			telemetry.Int("delay_ms", int(prev.Milliseconds())))
		sleepErr := rc.Sleep(ctx, prev)
		waitSpan.End()
		if sleepErr != nil {
			break // campaign cancelled mid-backoff; err keeps the last failure
		}
	}
	elapsed := time.Since(start)
	res := RunResult{Run: run, Seconds: elapsed.Seconds(), Attempts: attempt}
	status := provenance.StatusSucceeded
	dirStatus := cheetah.RunSucceeded
	if err != nil {
		status = provenance.StatusFailed
		dirStatus = cheetah.RunFailed
		res.Err = err.Error()
	}
	res.Status = status
	g.Status(run.ID, dirStatus)
	e.provenance(g, campaign, run, status, elapsed, recorded, false, usage)
	rec.Post(g)
	e.hRunSecs.Observe(elapsed.Seconds())
	e.hAttempts.Observe(float64(attempt))
	if !usage.Zero() {
		span.Annotate(telemetry.Float("cpu_s", usage.CPUSeconds()),
			telemetry.Float("cpu_user_s", usage.CPUUserSeconds),
			telemetry.Float("cpu_sys_s", usage.CPUSystemSeconds),
			telemetry.Int("max_rss_bytes", int(usage.MaxRSSBytes)))
		e.hCPUSecs.Observe(usage.CPUSeconds())
		e.hMaxRSS.Observe(float64(usage.MaxRSSBytes))
		e.Events.Append(eventlog.Info, eventlog.RunResources, "", span.ID(),
			telemetry.String("run", run.ID),
			telemetry.Float("cpu_s", usage.CPUSeconds()),
			telemetry.Int("max_rss_bytes", int(usage.MaxRSSBytes)))
	}
	if err != nil {
		// The failure's cause rides both observability channels: an "error"
		// span attribute (visible in fairctl trace and the Chrome export)
		// and an ERROR journal event under the same span.
		if rc.NoteOutcome(resilience.OutcomeFailed) {
			reason, _ := rc.Aborted()
			e.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, span.ID(),
				telemetry.String("campaign", campaign))
		}
		e.mFailed.Inc()
		span.End(telemetry.Bool("cached", false), telemetry.String("status", string(status)),
			telemetry.String("error", err.Error()), telemetry.Int("attempts", attempt))
		e.Events.Append(eventlog.Error, eventlog.RunFailed, err.Error(), span.ID(),
			telemetry.String("run", run.ID), telemetry.Int("attempts", attempt))
		return res
	}
	rc.NoteOutcome(resilience.OutcomeSucceeded)
	e.mExecuted.Inc()
	span.End(telemetry.Bool("cached", false), telemetry.String("status", string(status)),
		telemetry.Int("attempts", attempt))
	e.Events.Append(eventlog.Info, eventlog.RunSucceeded, "", span.ID(), telemetry.String("run", run.ID))
	return res
}

// quarantineOne closes out a run whose sweep point is (or just became)
// side-lined by the circuit breaker. attempt is 0 when the gate rejected the
// run before any execution.
func (e *LocalEngine) quarantineOne(campaign string, run cheetah.Run, span *telemetry.Span, rc *resilience.Controller, rec *Recorder, g *Group, point string, attempt int, cause error) RunResult {
	msg := "sweep point " + point + " quarantined"
	if cause != nil {
		msg = cause.Error()
	}
	g.Journal(rc.Record(run.ID, point, attempt, resilience.AttemptQuarantined, "", resilience.Classify(cause), cause))
	g.Status(run.ID, cheetah.RunFailed)
	e.provenance(g, campaign, run, provenance.StatusFailed, 0, cas.ActionResult{}, false, ResourceUsage{})
	rec.Post(g)
	if attempt > 0 {
		e.hAttempts.Observe(float64(attempt))
	}
	if rc.NoteOutcome(resilience.OutcomeQuarantined) {
		reason, _ := rc.Aborted()
		e.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, span.ID(),
			telemetry.String("campaign", campaign))
	}
	e.mQuarantined.Inc()
	e.mFailed.Inc()
	span.End(telemetry.Bool("cached", false), telemetry.String("status", "failed"),
		telemetry.Bool("quarantined", true), telemetry.Int("attempts", attempt))
	e.Events.Append(eventlog.Error, eventlog.RunQuarantined, msg, span.ID(),
		telemetry.String("run", run.ID), telemetry.String("point", point),
		telemetry.Int("attempts", attempt))
	return RunResult{
		Run: run, Status: provenance.StatusFailed, Err: msg,
		Attempts: attempt, Quarantined: true,
	}
}

// provenance adds one run's provenance record to g (nothing without a
// store).
func (e *LocalEngine) provenance(g *Group, campaign string, run cheetah.Run, status provenance.Status, elapsed time.Duration, res cas.ActionResult, cached bool, usage ResourceUsage) {
	if e.Prov != nil {
		g.Provenance(RunProvenance(campaign, run, atomic.AddInt64(&e.attempt, 1), status, elapsed, e.Memo, res, cached, usage))
	}
}

// RunProvenance builds the provenance record of one run, the same from every
// engine (same component, same digest fields, same cached annotation): it
// carries the memo's input and output digests (the ontology's input-digest/
// output-digest terms) and a cached annotation for skipped runs. seq makes
// the record id unique across resubmissions of the run.
func RunProvenance(campaign string, run cheetah.Run, seq int64, status provenance.Status, elapsed time.Duration, memo *Memo, res cas.ActionResult, cached bool, usage ResourceUsage) provenance.Record {
	end := time.Now()
	rec := provenance.Record{
		ID:         fmt.Sprintf("%s/%s#%d", campaign, run.ID, seq),
		Component:  "savanna-run",
		Start:      end.Add(-elapsed),
		End:        end,
		Status:     status,
		CampaignID: campaign,
		SweepPoint: run.Params,
		Inputs:     memo.provenanceInputs(),
		Outputs:    provenanceOutputs(res),
	}
	if cached {
		rec.Annotations = append(rec.Annotations, provenance.Annotation{
			Key: "cached", Value: "true", Sensitivity: provenance.Public,
		})
	}
	if !usage.Zero() {
		rec.Resources = &provenance.Resources{
			CPUUserSeconds:   usage.CPUUserSeconds,
			CPUSystemSeconds: usage.CPUSystemSeconds,
			MaxRSSBytes:      usage.MaxRSSBytes,
		}
	}
	return rec
}

// Remaining filters a manifest's runs to the resubmission set: runs whose
// *latest* provenance record is not a success. "Users may simply re-submit a
// partially completed SweepGroup of parameters to continue execution."
// Last-record-wins matters: a run that succeeded once but whose most recent
// re-execution failed must resurface — its published outputs no longer match
// its recorded provenance.
func Remaining(m *cheetah.Manifest, prov *provenance.Store) []cheetah.Run {
	last := map[string]provenance.Status{}
	for _, rec := range prov.Select(provenance.Query{CampaignID: m.Campaign.Name}) {
		// Record IDs are "<campaign>/<runID>#<attempt>"; strip the attempt.
		// Select returns insertion order, so later records overwrite earlier.
		id := rec.ID
		if i := strings.LastIndexByte(id, '#'); i >= 0 {
			id = id[:i]
		}
		last[id] = rec.Status
	}
	var out []cheetah.Run
	for _, run := range m.Runs {
		if last[m.Campaign.Name+"/"+run.ID] != provenance.StatusSucceeded {
			out = append(out, run)
		}
	}
	return out
}

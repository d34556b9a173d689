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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	switch len(run.Params) {
	case 0:
		return run.ID
	case 1:
		for k, v := range run.Params {
			return k + "=" + v
		}
	}
	// Up to 16 keys sort on the stack; the key is one allocation.
	var stack [16]string
	keys, n := stack[:0], 0
	for k, v := range run.Params {
		keys = append(keys, k)
		n += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(n)
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
// "nodes" of a local pilot). What happens to each run is the Lifecycle's to
// decide; the engine supplies the pool, the wall clock and the backoff sleep.
// Each slot pulls its own next run from an atomic counter over the set, so
// no dispatcher goroutine stands between two runs of a slot.
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
	// Resilience, when non-nil, arms the full fault-tolerance stack:
	// classified retries with decorrelated-jitter backoff, per-run
	// deadlines, sweep-point quarantine, the journaled attempt log that
	// savanna run replays, and the campaign-level stop condition. Nil is
	// the zero Config: one attempt per run, nothing else.
	Resilience *resilience.Config
	// Memo, when non-nil, memoizes whole runs: a run whose (component
	// digest, sweep point) recipe is already cached is skipped entirely, and
	// successful executions are recorded for the next campaign re-run or
	// resume. A memo without a cache or a component digest is refused when
	// the campaign opens.
	Memo *Memo
	// Tracer, when non-nil, records one "savanna.campaign" span per
	// RunCampaign/RunSets call and one "savanna.run" span per run under it
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
}

// validate checks the engine configuration.
func (e *LocalEngine) validate() error {
	if e.Executor == nil {
		return fmt.Errorf("savanna: engine needs an executor")
	}
	if e.Workers < 1 {
		return fmt.Errorf("savanna: engine needs ≥1 worker")
	}
	return e.Memo.Validate()
}

// RunCampaign executes the given runs with dynamic scheduling: workers pull
// the next run as soon as they free up, and results are returned in the input
// order. The context cancels the campaign (in-flight runs are killed, runs
// not yet started journal as skipped — exactly the state "savanna run"
// restarts from), and the returned CompletenessReport accounts for every run
// whether or not the campaign ran to the end.
func (e *LocalEngine) RunCampaign(ctx context.Context, campaign string, runs []cheetah.Run) ([]RunResult, resilience.CompletenessReport, error) {
	return e.run(ctx, campaign, "dynamic", runs, max(len(runs), 1))
}

// RunSets executes runs in barrier-synchronized sets of setSize — the
// baseline discipline. All runs of a set must finish before the next set
// starts, so one straggler idles every other worker. Results, report and
// cancellation are RunCampaign's.
func (e *LocalEngine) RunSets(ctx context.Context, campaign string, runs []cheetah.Run, setSize int) ([]RunResult, resilience.CompletenessReport, error) {
	if setSize < 1 {
		return nil, resilience.CompletenessReport{}, fmt.Errorf("savanna: set size must be ≥1")
	}
	return e.run(ctx, campaign, "set-synchronized", runs, setSize)
}

// run is one campaign: its span and start event, its resilience runtime, its
// recorder over the engine's sinks, the lifecycle that decides every run, and
// the runs themselves, setSize at a time over the engine's workers — each
// taking the next run of the set from one shared counter as soon as it frees
// up; a set ending is the barrier.
func (e *LocalEngine) run(ctx context.Context, campaign, discipline string, runs []cheetah.Run, setSize int) ([]RunResult, resilience.CompletenessReport, error) {
	if err := e.validate(); err != nil {
		return nil, resilience.CompletenessReport{}, err
	}
	rc := e.Resilience.Controller()
	ctx, span := e.Tracer.Start(ctx, "savanna.campaign",
		telemetry.String("campaign", campaign),
		telemetry.String("discipline", discipline),
		telemetry.Int("runs", len(runs)))
	e.Events.Append(eventlog.Info, eventlog.CampaignStart, campaign, span.ID(),
		telemetry.String("campaign", campaign), telemetry.Int("runs", len(runs)))
	lc := &Lifecycle{Campaign: campaign, Span: span.ID(), Controller: rc, Memo: e.Memo, Events: e.Events,
		Metrics: NewInstruments(e.Metrics, "savanna", "runs_executed_total")}
	if e.Prov != nil {
		lc.Seq = &e.attempt
	}
	rec := OpenRecorder(RecorderConfig{Engine: "local", Campaign: campaign, Span: span.ID(),
		Journal: rc.Journal(), Dir: e.CampaignDir, Prov: e.Prov, Events: e.Events, Metrics: e.Metrics, Probe: e.probe})
	results := make([]RunResult, len(runs))
	for lo := 0; lo < len(runs); lo += setSize {
		hi := min(lo+setSize, len(runs))
		var next atomic.Int64 // runs of this set taken so far
		var wg sync.WaitGroup
		for w := 0; w < e.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var g Group // this slot's, reused run after run
				for i := lo + int(next.Add(1)) - 1; i < hi; i = lo + int(next.Add(1)) - 1 {
					e.runOne(ctx, lc, rec, runs[i], &results[i], &g)
				}
			}()
		}
		wg.Wait()
	}
	return results, lc.Finish(rec, span, len(runs)), nil
}

// runOne drives one run through the lifecycle on this goroutine, against the
// wall clock, and posts each step as it is decided: the start of an attempt
// before it executes, a failed attempt before its backoff, the terminal
// record together with its status line and provenance — and only then is the
// outcome tallied, so a run skipped because this one tripped the stop
// condition is journaled after it. A run is skipped when the worker that
// picks it up finds the abort latch tripped or the campaign cancelled: no run
// starts after either. A cancelled campaign retries nothing; an aborted one
// lets a run under way use its budget. The result is written into res.
func (e *LocalEngine) runOne(ctx context.Context, lc *Lifecycle, rec *Recorder, run cheetah.Run, res *RunResult, g *Group) {
	start := time.Now()
	r := NewRunState(run, res)
	if _, aborted := lc.Controller.Aborted(); aborted || ctx.Err() != nil {
		lc.Skip(&r, g)
		rec.Post(g)
		return
	}
	runCtx, span := e.Tracer.Start(ctx, "savanna.run", telemetry.String("run", run.ID))
	r.Span = span
	e.Events.Append(eventlog.Info, eventlog.RunStart, "", span.ID(), telemetry.String("run", run.ID))
	if cached, ok := e.Memo.Lookup(run); ok {
		lc.Cached(&r, g, "", OutputDigests(cached), time.Since(start))
	} else {
		lc.Admit(&r, g, "")
	}
	for !r.Terminal() {
		lc.Begin(&r, g)
		rec.Post(g)
		out := Attempt(runCtx, e.Executor, e.Memo, run, lc.Controller.RunDeadline())
		out.Elapsed = time.Since(start)
		d := lc.Settle(&r, g, out, out.Err != nil && ctx.Err() != nil)
		if d.Terminal {
			break
		}
		rec.Post(g)
		// The backoff sleep gets its own child span so critical-path analysis
		// can attribute this dead time to "retry" rather than lumping it into
		// the run's exec time.
		_, waitSpan := e.Tracer.Start(runCtx, "savanna.retry_wait",
			telemetry.String("run", run.ID), telemetry.Int("attempt", r.Result.Attempts),
			telemetry.Int("delay_ms", int(d.Delay.Milliseconds())))
		err := lc.Controller.Sleep(ctx, d.Delay)
		waitSpan.End()
		if err != nil {
			lc.GiveUp(&r, g, out) // campaign cancelled mid-backoff
		}
	}
	rec.Post(g)
	lc.Conclude(&r, "")
}

package savanna

import (
	"context"
	"fmt"
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

// Lifecycle is the one place a campaign decides what happens to a run: found
// in the memo, refused at the quarantine gate, attempted, retried, ended. The
// three engines drive it — LocalEngine from its worker goroutines, SimEngine
// from the simulation's callbacks, the remote coordinator under its lock — and
// keep only what they alone know: where an attempt executes, what time it is,
// and when a filled Group goes to the recorder. A decision writes what it must
// leave behind (journal records, status lines, the provenance record) into
// the Group it is handed and sets the run's result; once a run has ended and
// the engine has posted that group, or decided when it will, Conclude tallies
// the outcome on the controller and updates instruments, span and event log.
// No method posts, blocks or reads a clock other than through
// Controller.Record and the provenance record's stamp.
//
// A Lifecycle holds no per-run state: that is the RunState the engine keeps
// for each run and passes in. Methods are safe to call from many goroutines
// as long as no two calls share a RunState or a Group.
type Lifecycle struct {
	// Campaign names the campaign in provenance ids and events; Span is the
	// campaign span's id, under which campaign-level events are filed.
	Campaign string
	Span     int64
	// Controller is the campaign's resilience runtime: attempt budget,
	// backoff stream, quarantine breaker, outcome tally, abort latch, and the
	// journal clock. Without a journal no record is built and no clock read.
	Controller *resilience.Controller
	// Seq numbers provenance records (the engine's counter, so ids stay
	// unique over resubmissions through the same engine); nil when the engine
	// has no provenance store, and then no record is built. Memo supplies
	// their input digests.
	Seq  *int64
	Memo *Memo
	// Requeues says how the engine paces a retry: it puts the run behind the
	// rest of its queue (the remote coordinator) instead of waiting out a
	// backoff, so no delay is drawn from the jitter stream or reported.
	Requeues bool
	// Events and the instruments are the engine's own, already resolved: the
	// lifecycle never asks which engine is driving it.
	Events  *eventlog.Log
	Metrics Instruments

	// inputs is Memo.provenanceInputs, built by the first record.
	inputsOnce sync.Once
	inputs     map[string]string
}

// Instruments are the per-run series an engine exports under its own names
// (savanna.* for Local and Sim, remote.* for the coordinator). Nil
// instruments swallow updates.
type Instruments struct {
	Executed, Cached, Failed, Retries, Quarantined *telemetry.Counter
	RunSeconds, Attempts, CPUSeconds, MaxRSS       *telemetry.Histogram
}

// attemptBuckets bound the run_attempts histograms.
var attemptBuckets = []float64{1, 2, 3, 5, 8, 13}

// NewInstruments resolves the lifecycle's instruments in reg under prefix;
// executed names the counter of runs that executed to success, the one name
// the engines do not share ("runs_executed_total", "runs_completed_total").
func NewInstruments(reg *telemetry.Registry, prefix, executed string) Instruments {
	return Instruments{
		Executed:    reg.Counter(prefix + "." + executed),
		Cached:      reg.Counter(prefix + ".runs_cached_total"),
		Failed:      reg.Counter(prefix + ".runs_failed_total"),
		Retries:     reg.Counter(prefix + ".retries_total"),
		Quarantined: reg.Counter(prefix + ".quarantined_total"),
		RunSeconds:  reg.Histogram(prefix+".run_seconds", nil),
		Attempts:    reg.Histogram(prefix+".run_attempts", attemptBuckets),
		CPUSeconds:  reg.Histogram(prefix+".run_cpu_seconds", nil),
		MaxRSS:      reg.Histogram(prefix+".run_max_rss_bytes", RSSBuckets),
	}
}

// RunState is one run as the lifecycle sees it. The engine creates it with
// NewRunState, sets Span when it opens the run's span, and reads Result once
// Terminal reports true.
type RunState struct {
	// Result is the run's outcome, in the engine's results slice. Until the
	// run ends only Run and Attempts are set: Attempts counts the executions
	// settled so far.
	Result *RunResult
	// Span is the span the run's events are filed under and that its
	// terminal decision ends: one per run for Local and Remote, one per
	// attempt for Sim. Nil when the engine traces nothing.
	Span *telemetry.Span

	point string        // PointKey(run), made by key on first use
	open  bool          // Begin opened attempt Attempts+1 and nothing closed it yet
	begun bool          // the run has been marked running
	prev  time.Duration // last backoff delay, the jitter stream's memory
	usage ResourceUsage // cost summed over the settled attempts
}

// NewRunState starts tracking run, whose result it writes into res.
func NewRunState(run cheetah.Run, res *RunResult) RunState {
	*res = RunResult{Run: run}
	return RunState{Result: res}
}

// Terminal reports whether the run has ended (a zero RunState has not);
// Result is final from then on.
func (r *RunState) Terminal() bool { return r.Result != nil && r.Result.Status != "" }

// key is the run's sweep point, made when a journal record, the quarantine or
// its message first needs it: without journal and quarantine, never.
func (r *RunState) key() string {
	if r.point == "" {
		r.point = PointKey(r.Result.Run)
	}
	return r.point
}

// AttemptResult is how one execution of a run ended, as the engine saw it.
type AttemptResult struct {
	// Err is nil when the attempt succeeded; Class is Err's failure class.
	Err   error
	Class resilience.Class
	// Elapsed is what the run took on the engine's clock: wall time since
	// the run began (Local), the worker's measurement (Remote), the modelled
	// duration (Sim).
	Elapsed time.Duration
	// Outputs is the memo's record of a successful attempt: output name →
	// digest, as provenance and the wire carry it.
	Outputs map[string]string
	// Usage is what the attempt cost, when the executor measures it.
	Usage ResourceUsage
	// Worker names the remote worker that executed the attempt, "" elsewhere.
	Worker string
}

// Decision is what the engine must do next with a run it has settled an
// attempt of.
type Decision struct {
	// Terminal: the run is over and its RunState holds the result. Otherwise
	// the run is owed another attempt, not before Delay has passed on the
	// engine's clock (zero for an engine that requeues).
	Terminal bool
	Delay    time.Duration
}

// Attempt executes run once — the body LocalEngine and the remote worker
// share. The per-attempt deadline, when there is one, bounds it; an executor
// that takes a context gets the one carrying that deadline and the campaign's
// cancellation; a success goes into the memo, and a record that fails turns
// the attempt into a failure, since the run's reuse contract is broken. The
// result carries the failure's class and what the executor measured of the
// attempt's cost; Elapsed and Worker are the caller's to fill.
func Attempt(ctx context.Context, exec Executor, memo *Memo, run cheetah.Run, deadline time.Duration) AttemptResult {
	var out AttemptResult
	ctx = WithResourceSink(ctx, &out.Usage)
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	if cx, ok := exec.(ContextExecutor); ok {
		out.Err = cx.ExecuteContext(ctx, run)
	} else {
		out.Err = exec.Execute(run)
	}
	if out.Err == nil {
		var res cas.ActionResult
		res, out.Err = memo.Record(run)
		out.Outputs = OutputDigests(res)
	}
	out.Class = resilience.Classify(out.Err)
	return out
}

// Cached ends a run whose recipe the memo already holds: nothing executes,
// the run is recorded succeeded. worker names the remote worker whose cache
// hit, "" for the engine's own memo.
func (lc *Lifecycle) Cached(r *RunState, g *Group, worker string, outputs map[string]string, elapsed time.Duration) {
	lc.journal(g, r, 0, resilience.AttemptCached, worker, "", nil)
	g.Status(r.Result.Run.ID, cheetah.RunSucceeded)
	r.Result.Status = provenance.StatusSucceeded
	r.Result.Seconds = elapsed.Seconds()
	r.Result.Cached = true
	lc.provenance(g, r, elapsed, outputs, ResourceUsage{})
}

// Admit is the quarantine gate, passed before every attempt is placed. A
// sweep point already side-lined — by another run at the same point, or by
// the journal a resume restored — ends the run here without spending an
// attempt: Admit reports false and the run is terminal.
func (lc *Lifecycle) Admit(r *RunState, g *Group, worker string) bool {
	if q := lc.Controller.Quarantine(); q == nil || q.Allow(r.key()) {
		return true
	}
	lc.quarantine(r, g, worker, "", nil)
	return false
}

// Begin opens the run's next attempt where it is about to execute: the run
// is marked running the first time, and a start record numbered with the
// attempt goes to the journal. The engine posts g before it executes.
func (lc *Lifecycle) Begin(r *RunState, g *Group) {
	if !r.begun {
		r.begun = true
		g.Status(r.Result.Run.ID, cheetah.RunRunning)
	}
	r.open = true
	lc.journal(g, r, r.Result.Attempts+1, resilience.AttemptStart, "", "", nil)
}

// Dispatch records the run handed to a remote worker. Placement is not
// execution — the worker may give the run back unstarted — so no attempt
// opens and the record carries the attempts spent so far.
func (lc *Lifecycle) Dispatch(r *RunState, g *Group, worker string) {
	lc.journal(g, r, r.Result.Attempts, resilience.AttemptDispatched, worker, "", nil)
}

// Void takes back an attempt or a placement that says nothing about the run:
// Sim's killed (node failure, walltime), Remote's lost (lease expired) and
// stolen (given back unstarted). The run is owed again with its budget
// untouched. An open attempt is recorded under its number and as a transient
// fault; a placement under the attempts spent.
func (lc *Lifecycle) Void(r *RunState, g *Group, verb, worker string, reason error) {
	attempt, class := r.Result.Attempts, resilience.Class("")
	if r.open {
		r.open = false
		attempt, class = r.Result.Attempts+1, resilience.ClassTransient
	}
	lc.journal(g, r, attempt, verb, worker, class, reason)
}

// Settle folds one attempt's outcome into the run and decides what follows:
// success ends it; a failure that trips the sweep point's breaker ends it
// quarantined; a retryable failure with budget left is owed another attempt
// after Delay, unless the engine has halted retries; anything else ends it
// failed. halted is the engine's to say, because the engines differ in what
// stops a retry: LocalEngine a cancelled campaign, the remote coordinator the
// abort latch, SimEngine nothing (a retry parked after the latch trips is
// cleared from its queue and skipped, so a resume still owes the run). It is
// read for a failure only, so an engine need not work it out for a success.
// A terminal decision leaves the terminal record, the status line and the
// provenance record in g together.
func (lc *Lifecycle) Settle(r *RunState, g *Group, o AttemptResult, halted bool) Decision {
	r.Result.Attempts++
	r.open = false
	r.usage.Accumulate(o.Usage)
	q := lc.Controller.Quarantine()
	if o.Err == nil {
		if q != nil {
			q.NoteSuccess(r.key())
		}
		lc.journal(g, r, r.Result.Attempts, resilience.AttemptSuccess, o.Worker, "", nil)
		lc.end(r, g, o)
		return Decision{Terminal: true}
	}
	lc.journal(g, r, r.Result.Attempts, resilience.AttemptFailure, o.Worker, o.Class, o.Err)
	if q != nil && q.NoteFailure(r.key()) {
		lc.quarantine(r, g, o.Worker, o.Class, o.Err)
		return Decision{Terminal: true}
	}
	if !o.Class.Retryable() || r.Result.Attempts >= lc.Controller.Attempts() || halted {
		lc.end(r, g, o)
		return Decision{Terminal: true}
	}
	lc.Controller.NoteRetry()
	lc.Metrics.Retries.Inc()
	attrs := []telemetry.Attr{telemetry.Int("attempt", r.Result.Attempts), telemetry.String("class", string(o.Class))}
	if !lc.Requeues {
		r.prev = lc.Controller.Backoff(r.prev)
		attrs = append(attrs, telemetry.Int("delay_ms", int(r.prev.Milliseconds())))
	}
	lc.event(eventlog.Warn, eventlog.RunRetry, o.Err.Error(), r, o.Worker, attrs...)
	return Decision{Delay: r.prev}
}

// GiveUp ends failed a run whose granted retry cannot happen — the campaign
// was cancelled during its backoff. o is the attempt Settle granted the retry
// for; its failure stands and is already in the journal.
func (lc *Lifecycle) GiveUp(r *RunState, g *Group, o AttemptResult) {
	lc.end(r, g, o)
}

// Skip ends a run the campaign will not attempt (any more): the abort latch
// tripped or the campaign was cancelled first. It journals skipped and gets
// no status line, so both resume paths — the attempt journal and the campaign
// directory — still list it as owed.
func (lc *Lifecycle) Skip(r *RunState, g *Group) {
	lc.journal(g, r, r.Result.Attempts, resilience.AttemptSkipped, "", "", nil)
	r.Result.Status = provenance.StatusSkipped
	lc.provenance(g, r, 0, nil, ResourceUsage{})
	lc.Controller.NoteOutcome(resilience.OutcomeSkipped)
	r.Span.End(telemetry.Bool("cached", false), telemetry.String("status", "skipped"), telemetry.Int("attempts", r.Result.Attempts))
}

// Finish closes a campaign: the recorder first — everything posted is
// written, the status log and the journal are fsynced — then the campaign
// span and the abort/done events, and the completeness report over total runs.
func (lc *Lifecycle) Finish(rec *Recorder, span *telemetry.Span, total int) resilience.CompletenessReport {
	rec.Close()
	if reason, aborted := lc.Controller.Aborted(); aborted {
		lc.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, lc.Span,
			telemetry.String("campaign", lc.Campaign))
	}
	span.End()
	lc.Events.Append(eventlog.Info, eventlog.CampaignDone, lc.Campaign, lc.Span,
		telemetry.String("campaign", lc.Campaign))
	return lc.Controller.Report(total)
}

// end closes a run that executed to a terminal success or failure (the
// attempt's own journal record is already in g).
func (lc *Lifecycle) end(r *RunState, g *Group, o AttemptResult) {
	r.Result.Seconds = o.Elapsed.Seconds()
	if o.Err != nil {
		g.Status(r.Result.Run.ID, cheetah.RunFailed)
		r.Result.Status = provenance.StatusFailed
		r.Result.Err = o.Err.Error()
		lc.provenance(g, r, o.Elapsed, nil, r.usage)
		return
	}
	g.Status(r.Result.Run.ID, cheetah.RunSucceeded)
	r.Result.Status = provenance.StatusSucceeded
	lc.provenance(g, r, o.Elapsed, o.Outputs, r.usage)
}

// quarantine ends a run whose sweep point is side-lined: at the gate (cause
// nil and no class, no attempt spent on it) or by the failure that tripped
// the breaker, whose class the engine reported with it.
func (lc *Lifecycle) quarantine(r *RunState, g *Group, worker string, class resilience.Class, cause error) {
	r.Result.Err = "sweep point " + r.key() + " quarantined"
	if cause != nil {
		r.Result.Err = cause.Error()
	}
	lc.journal(g, r, r.Result.Attempts, resilience.AttemptQuarantined, worker, class, cause)
	g.Status(r.Result.Run.ID, cheetah.RunFailed)
	r.Result.Status = provenance.StatusFailed
	r.Result.Quarantined = true
	lc.provenance(g, r, 0, nil, r.usage)
}

// Conclude closes the books on a run that has ended cached, succeeded, failed
// or quarantined: the outcome is tallied (aborted reports that it tripped the
// campaign's stop condition — true at most once per campaign), the
// instruments updated, the run's span ended and its terminal event filed. It
// is apart from the decision so that the engine chooses what comes first:
// LocalEngine and SimEngine post the terminal group before they conclude, so
// no other run can see the latch tripped — and journal its skip — ahead of
// the record that tripped it; the coordinator does both in one critical
// section. A failure's cause rides both observability channels: an "error"
// span attribute and an ERROR event under the same span. worker is as in the
// decision that ended the run.
func (lc *Lifecycle) Conclude(r *RunState, worker string) (aborted bool) {
	res := r.Result
	attempts := telemetry.Int("attempts", res.Attempts)
	switch {
	case res.Cached:
		aborted = lc.tally(resilience.OutcomeCached)
		lc.Metrics.Cached.Inc()
		lc.Metrics.RunSeconds.Observe(res.Seconds)
		r.Span.End(telemetry.Bool("cached", true), telemetry.String("status", "succeeded"), attempts)
		lc.event(eventlog.Info, eventlog.RunCached, "", r, worker)
	case res.Quarantined:
		if res.Attempts > 0 {
			lc.Metrics.Attempts.Observe(float64(res.Attempts))
		}
		aborted = lc.tally(resilience.OutcomeQuarantined)
		lc.Metrics.Quarantined.Inc()
		lc.Metrics.Failed.Inc()
		r.Span.End(telemetry.Bool("cached", false), telemetry.String("status", "failed"),
			telemetry.Bool("quarantined", true), attempts)
		lc.event(eventlog.Error, eventlog.RunQuarantined, res.Err, r, worker,
			telemetry.String("point", r.key()), attempts)
	default:
		lc.Metrics.RunSeconds.Observe(res.Seconds)
		lc.Metrics.Attempts.Observe(float64(res.Attempts))
		if u := r.usage; !u.Zero() {
			r.Span.Annotate(telemetry.Float("cpu_s", u.CPUSeconds()),
				telemetry.Float("cpu_user_s", u.CPUUserSeconds),
				telemetry.Float("cpu_sys_s", u.CPUSystemSeconds),
				telemetry.Int("max_rss_bytes", int(u.MaxRSSBytes)))
			lc.Metrics.CPUSeconds.Observe(u.CPUSeconds())
			lc.Metrics.MaxRSS.Observe(float64(u.MaxRSSBytes))
			lc.event(eventlog.Info, eventlog.RunResources, "", r, worker,
				telemetry.Float("cpu_s", u.CPUSeconds()), telemetry.Int("max_rss_bytes", int(u.MaxRSSBytes)))
		}
		status := telemetry.String("status", string(res.Status))
		if res.Status == provenance.StatusFailed {
			aborted = lc.tally(resilience.OutcomeFailed)
			lc.Metrics.Failed.Inc()
			r.Span.End(telemetry.Bool("cached", false), status, telemetry.String("error", res.Err), attempts)
			lc.event(eventlog.Error, eventlog.RunFailed, res.Err, r, worker, attempts)
		} else {
			aborted = lc.tally(resilience.OutcomeSucceeded)
			lc.Metrics.Executed.Inc()
			r.Span.End(telemetry.Bool("cached", false), status, attempts)
			lc.event(eventlog.Info, eventlog.RunSucceeded, "", r, worker)
		}
	}
	return aborted
}

// tally counts one terminal outcome and, when it trips the stop condition,
// says so once in the event log.
func (lc *Lifecycle) tally(kind string) (aborted bool) {
	if !lc.Controller.NoteOutcome(kind) {
		return false
	}
	reason, _ := lc.Controller.Aborted()
	lc.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, lc.Span,
		telemetry.String("campaign", lc.Campaign))
	return true
}

// journal adds one attempt record, stamped now, to g. Without a journal the
// recorder would drop it: it is not built, since stamping reads the clock.
func (lc *Lifecycle) journal(g *Group, r *RunState, attempt int, event, worker string, class resilience.Class, cause error) {
	if lc.Controller.Journal() != nil {
		g.Journal(lc.Controller.Record(r.Result.Run.ID, r.key(), attempt, event, worker, class, cause))
	}
}

// provenance adds the provenance record of a run whose result is set to g
// (nothing without a store), the same from every engine: same component, the
// memo's input and output digests (the ontology's input-digest/output-digest
// terms), a cached annotation for runs nothing executed, what the attempts
// cost. The sequence number keeps the id unique across resubmissions.
func (lc *Lifecycle) provenance(g *Group, r *RunState, elapsed time.Duration, outputs map[string]string, usage ResourceUsage) {
	if lc.Seq == nil {
		return
	}
	lc.inputsOnce.Do(func() { lc.inputs = lc.Memo.provenanceInputs() })
	end := time.Now()
	rec := provenance.Record{
		ID:         fmt.Sprintf("%s/%s#%d", lc.Campaign, r.Result.Run.ID, atomic.AddInt64(lc.Seq, 1)),
		Component:  "savanna-run",
		Start:      end.Add(-elapsed),
		End:        end,
		Status:     r.Result.Status,
		CampaignID: lc.Campaign,
		SweepPoint: r.Result.Run.Params,
		Inputs:     lc.inputs,
		Outputs:    outputs,
	}
	if r.Result.Cached {
		rec.Annotations = append(rec.Annotations, provenance.Annotation{Key: "cached", Value: "true", Sensitivity: provenance.Public})
	}
	if !usage.Zero() {
		rec.Resources = &provenance.Resources{CPUUserSeconds: usage.CPUUserSeconds,
			CPUSystemSeconds: usage.CPUSystemSeconds, MaxRSSBytes: usage.MaxRSSBytes}
	}
	g.Provenance(rec)
}

// event files one run event under the run's span: run first, then the worker
// when there is one, then more.
func (lc *Lifecycle) event(level eventlog.Level, typ, msg string, r *RunState, worker string, more ...telemetry.Attr) {
	if !lc.Events.Enabled(level) {
		return
	}
	var buf [4]telemetry.Attr // on the stack: Append's copy is the one allocation
	attrs := append(buf[:0], telemetry.String("run", r.Result.Run.ID))
	if worker != "" {
		attrs = append(attrs, telemetry.String("worker", worker))
	}
	lc.Events.Append(level, typ, msg, r.Span.ID(), append(attrs, more...)...)
}

package savanna

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// The lifecycle is tested alone: no engine, goroutine, socket or recorder.
// A test drives it the way an engine would, with scripted attempt outcomes,
// and reads what it decided straight out of the Group.

var lifecycleEpoch = time.Unix(1_700_000_000, 0).UTC()

// lifecycleBench is a Lifecycle over real but idle sinks: the journal file is
// only there so records are built (nothing writes it), every clock is fixed.
type lifecycleBench struct {
	lc      *Lifecycle
	metrics *telemetry.Registry
	events  *eventlog.Log
	tracer  *telemetry.Tracer
	seq     int64
}

func newLifecycleBench(t *testing.T, cfg resilience.Config) *lifecycleBench {
	t.Helper()
	journal, err := resilience.OpenJournal(filepath.Join(t.TempDir(), "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	cfg.Journal = journal
	cfg.Now = func() time.Time { return lifecycleEpoch }
	clock := telemetry.ClockFunc(func() time.Time { return lifecycleEpoch })
	b := &lifecycleBench{metrics: telemetry.NewRegistry(), events: eventlog.NewLog(), tracer: telemetry.NewTracer()}
	b.events.SetClock(clock)
	b.tracer.SetClock(clock)
	b.lc = &Lifecycle{Campaign: "table", Span: 77, Controller: resilience.NewController(cfg),
		Seq: &b.seq, Events: b.events, Metrics: NewInstruments(b.metrics, "test", "runs_executed_total")}
	return b
}

// open tracks a run with a span, as an engine that traces would.
func (b *lifecycleBench) open(id string, point int) *RunState {
	r := NewRunState(cheetah.Run{ID: id, Params: map[string]string{"i": fmt.Sprint(point)}}, new(RunResult))
	_, r.Span = b.tracer.Start(context.Background(), "test.run", telemetry.String("run", id))
	return &r
}

// verbs renders a group's journal records as "verb/attempt[/class]".
func verbs(g *Group) []string {
	var out []string
	for _, rec := range g.journal {
		v := fmt.Sprintf("%s/%d", rec.Event, rec.Attempt)
		if rec.Class != "" {
			v += "/" + string(rec.Class)
		}
		out = append(out, v)
	}
	return out
}

func statuses(g *Group) []cheetah.RunStatus {
	var out []cheetah.RunStatus
	for _, ln := range g.status {
		out = append(out, ln.Status)
	}
	return out
}

// scripted attempt outcomes.
var (
	okAttempt        = AttemptResult{Elapsed: 2 * time.Second}
	transientAttempt = AttemptResult{Err: errors.New("flaky"), Class: resilience.ClassTransient, Elapsed: 2 * time.Second}
	permanentAttempt = AttemptResult{Err: resilience.MarkPermanent(errors.New("broken")), Class: resilience.ClassPermanent, Elapsed: 2 * time.Second}
	deadlineAttempt  = AttemptResult{Err: context.DeadlineExceeded, Class: resilience.ClassDeadline, Elapsed: 2 * time.Second}
)

// TestLifecycleDecisionTable crosses every attempt script with attempt
// budget × quarantine threshold × abort latch × whether the engine has halted
// retries (the coordinator halts them with the latch, LocalEngine only with a
// cancelled campaign, SimEngine never) and holds the lifecycle to a model
// small enough to read: which records each step leaves in the group, what it
// tells the engine to do next, and — whatever the path — that the run ends in
// exactly one terminal record, one terminal status line, one provenance
// record and one tallied outcome.
func TestLifecycleDecisionTable(t *testing.T) {
	type step struct {
		name string
		out  AttemptResult
		void bool
	}
	ok, tr := step{"ok", okAttempt, false}, step{"transient", transientAttempt, false}
	perm, dl, void := step{"permanent", permanentAttempt, false}, step{"deadline", deadlineAttempt, false}, step{name: "void", void: true}
	scripts := [][]step{
		{ok}, {tr, ok}, {tr, tr, ok}, {tr, tr, tr, ok}, {perm}, {dl}, {tr, perm},
		{void, ok}, {tr, void, ok}, {void, void, tr, ok},
	}
	for _, script := range scripts {
		for budget := 1; budget <= 3; budget++ {
			for threshold := 0; threshold <= 3; threshold++ {
				for mode := 0; mode < 4; mode++ {
					latched, halted := mode&1 != 0, mode&2 != 0
					name := fmt.Sprintf("budget=%d/quarantine=%d/aborted=%v/halted=%v", budget, threshold, latched, halted)
					for i := len(script) - 1; i >= 0; i-- {
						name = script[i].name + "," + name
					}
					b := newLifecycleBench(t, resilience.Config{
						Retry:           resilience.RetryPolicy{MaxAttempts: budget, BaseDelay: time.Second},
						QuarantineAfter: threshold, Seed: 3,
					})
					if latched {
						b.lc.Controller.Abort("operator said so")
					}
					r := b.open("r0", 0)
					var g Group
					if !b.lc.Admit(r, &g, "") || !g.empty() {
						t.Fatalf("%s: a clean point was not admitted", name)
					}
					// The model: attempts spent, consecutive failures at the point.
					spent, consec, retries := 0, 0, 0
					var all []string
					var lines []cheetah.RunStatus
					var provs []provenance.Record
					terminal := ""
				play:
					for i, st := range script {
						b.lc.Begin(r, &g)
						want := []string{fmt.Sprintf("start/%d", spent+1)}
						if st.void {
							b.lc.Void(r, &g, resilience.AttemptKilled, "", errors.New("node died"))
							want = append(want, fmt.Sprintf("killed/%d/transient", spent+1))
						} else {
							d := b.lc.Settle(r, &g, st.out, halted)
							spent++
							switch {
							case st.out.Err == nil:
								want = append(want, fmt.Sprintf("success/%d", spent))
								terminal, consec = "succeeded", 0
							default:
								consec++
								want = append(want, fmt.Sprintf("failure/%d/%s", spent, st.out.Class))
								switch {
								case threshold > 0 && consec >= threshold:
									// The breaker re-reads the class off the cause.
									want = append(want, fmt.Sprintf("quarantined/%d/%s", spent, resilience.Classify(st.out.Err)))
									terminal = "quarantined"
								case st.out.Class == resilience.ClassTransient && spent < budget && !halted:
									retries++
								default:
									terminal = "failed"
								}
							}
							if d.Terminal != (terminal != "") || d.Terminal != r.Terminal() {
								t.Fatalf("%s: step %d (%s) decided %+v, model says terminal=%q", name, i, st.name, d, terminal)
							}
							if !d.Terminal && (d.Delay < time.Second || d.Delay > 64*time.Second) {
								t.Fatalf("%s: step %d retry delay %s outside the policy's [1s, 64s]", name, i, d.Delay)
							}
						}
						if got := verbs(&g); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: step %d (%s) journaled %v, want %v", name, i, st.name, got, want)
						}
						all = append(all, verbs(&g)...)
						lines = append(lines, statuses(&g)...)
						provs = append(provs, g.prov...)
						g.reset()
						if terminal != "" {
							// Concluding touches no sink and, with no stop policy, trips nothing.
							if b.lc.Conclude(r, "") || !g.empty() {
								t.Fatalf("%s: concluding tripped a stop condition or wrote to the group", name)
							}
							break play
						}
					}
					if terminal == "" {
						t.Fatalf("%s: the script never ends the run", name)
					}

					// Exactly one ending, said the same way everywhere.
					res := r.Result
					wantStatus := provenance.StatusFailed
					wantLines := []cheetah.RunStatus{cheetah.RunRunning, cheetah.RunFailed}
					if terminal == "succeeded" {
						wantStatus, wantLines[1] = provenance.StatusSucceeded, cheetah.RunSucceeded
					}
					if !r.Terminal() || res.Status != wantStatus || res.Attempts != spent ||
						res.Quarantined != (terminal == "quarantined") || (res.Err == "") != (terminal == "succeeded") {
						t.Errorf("%s: result %+v, want %s after %d attempt(s)", name, res, terminal, spent)
					}
					if !reflect.DeepEqual(lines, wantLines) {
						t.Errorf("%s: status lines %v, want %v", name, lines, wantLines)
					}
					if len(provs) != 1 || provs[0].Status != wantStatus || provs[0].ID != "table/r0#1" {
						t.Errorf("%s: provenance %+v, want one %s record", name, provs, wantStatus)
					}
					ends := 0
					for _, v := range all {
						switch v[:3] {
						case "suc", "qua", "ski", "cac":
							ends++
						}
					}
					if want := map[string]int{"succeeded": 1, "quarantined": 1, "failed": 0}[terminal]; ends != want {
						t.Errorf("%s: %d terminal record(s) in %v, want %d", name, ends, all, want)
					}
					report := b.lc.Controller.Report(1)
					want := resilience.CompletenessReport{Total: 1, Retries: retries, Aborted: latched}
					switch terminal {
					case "succeeded":
						want.Succeeded = 1
					case "failed":
						want.Failed = 1
					case "quarantined":
						want.Quarantined, want.Points = 1, []string{"i=0"}
					}
					if latched {
						want.Reason = "operator said so"
					}
					if len(report.Points) == 0 {
						report.Points = nil // a breaker with nothing side-lined lists empty, not nil
					}
					if !reflect.DeepEqual(report, want) {
						t.Errorf("%s: report %+v, want %+v", name, report, want)
					}
					// Instruments agree with the report, and the run's span is ended
					// with the attempts it took.
					m := b.lc.Metrics
					if m.Executed.Value() != int64(want.Succeeded) || m.Failed.Value() != int64(want.Failed+want.Quarantined) ||
						m.Quarantined.Value() != int64(want.Quarantined) || m.Retries.Value() != int64(retries) || m.Attempts.Count() != 1 {
						t.Errorf("%s: instruments executed=%d failed=%d quarantined=%d retries=%d attempts-observations=%d disagree with %+v",
							name, m.Executed.Value(), m.Failed.Value(), m.Quarantined.Value(), m.Retries.Value(), m.Attempts.Count(), want)
					}
					spans := b.tracer.Snapshot()
					if len(spans) != 1 || spans[0].Attr("attempts") != fmt.Sprint(spent) {
						t.Errorf("%s: spans %+v, want the run's, ended with attempts=%d", name, spans, spent)
					}
				}
			}
		}
	}
}

// TestLifecycleGroupContents pins, record by record, what each decision
// leaves in the group for the paths the table's model does not spell out:
// cached, the quarantine gate, a placement taken back, a retry an engine that
// requeues paces itself, a retry given up, the stop condition tripped by
// concluding and the skips that follow it.
func TestLifecycleGroupContents(t *testing.T) {
	b := newLifecycleBench(t, resilience.Config{
		Retry:           resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second},
		QuarantineAfter: 2,
		Stop:            resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 8},
	})
	lc := b.lc
	var g Group
	// expect checks the group against what a decision must have left in it,
	// then concludes r — when the decision ended one — as an engine would
	// after posting, and checks whether that tripped the stop condition.
	expect := func(what string, r *RunState, trips bool, wantVerbs []string, wantStatus []cheetah.RunStatus, wantProv []provenance.Status) {
		t.Helper()
		if got := verbs(&g); !reflect.DeepEqual(got, wantVerbs) {
			t.Errorf("%s: journal %v, want %v", what, got, wantVerbs)
		}
		if got := statuses(&g); !reflect.DeepEqual(got, wantStatus) {
			t.Errorf("%s: status lines %v, want %v", what, got, wantStatus)
		}
		var prov []provenance.Status
		for _, rec := range g.prov {
			prov = append(prov, rec.Status)
		}
		if !reflect.DeepEqual(prov, wantProv) {
			t.Errorf("%s: provenance %v, want %v", what, prov, wantProv)
		}
		g.reset()
		if r == nil {
			return
		}
		if !r.Terminal() {
			t.Fatalf("%s: the run has not ended: %+v", what, r.Result)
		}
		if got := lc.Conclude(r, ""); got != trips {
			t.Errorf("%s: concluding reported aborted=%v, want %v", what, got, trips)
		}
	}
	running := []cheetah.RunStatus{cheetah.RunRunning}
	runFailed := []cheetah.RunStatus{cheetah.RunRunning, cheetah.RunFailed}
	failed := []provenance.Status{provenance.StatusFailed}

	// Cached: one record at attempt 0 naming the worker whose cache hit, the
	// cached annotation and the memo's outputs in provenance.
	cached := b.open("cached", 1)
	lc.Cached(cached, &g, "w3", map[string]string{"out": "sha256:aa"}, time.Second)
	if len(g.journal) != 1 || g.journal[0].Worker != "w3" || !g.journal[0].Time.Equal(lifecycleEpoch) {
		t.Errorf("cached record %+v, want worker w3 stamped by the controller's clock", g.journal)
	}
	if len(g.prov) != 1 || g.prov[0].Outputs["out"] != "sha256:aa" || len(g.prov[0].Annotations) != 1 ||
		g.prov[0].End.Sub(g.prov[0].Start) != time.Second {
		t.Errorf("cached provenance %+v, want outputs, the cached annotation and one second", g.prov)
	}
	expect("cached", cached, false, []string{"cached/0"}, []cheetah.RunStatus{cheetah.RunSucceeded}, []provenance.Status{provenance.StatusSucceeded})
	if res := cached.Result; !res.Cached || res.Attempts != 0 || res.Seconds != 1 {
		t.Errorf("cached result %+v", res)
	}

	// A placement: dispatched and taken back twice, nothing spent, then one
	// success — with the worker's measured cost in provenance.
	placed := b.open("placed", 2)
	lc.Dispatch(placed, &g, "w1")
	lc.Void(placed, &g, resilience.AttemptLost, "w1", errors.New("lease expired"))
	lc.Dispatch(placed, &g, "w2")
	lc.Void(placed, &g, resilience.AttemptStolen, "w2", nil)
	lc.Dispatch(placed, &g, "w3")
	expect("placements", nil, false, []string{"dispatched/0", "lost/0", "dispatched/0", "stolen/0", "dispatched/0"}, nil, nil)
	d := lc.Settle(placed, &g, AttemptResult{Worker: "w3", Elapsed: 3 * time.Second,
		Usage: ResourceUsage{CPUUserSeconds: 1.5, MaxRSSBytes: 1 << 20}}, false)
	if len(g.prov) != 1 || g.prov[0].Resources == nil || g.prov[0].Resources.CPUUserSeconds != 1.5 || !d.Terminal {
		t.Errorf("decision %+v, provenance %+v, want the run ended with the attempt's resources", d, g.prov)
	}
	expect("placed success", placed, false, []string{"success/1"}, []cheetah.RunStatus{cheetah.RunSucceeded}, []provenance.Status{provenance.StatusSucceeded})

	// The breaker: two permanent failures at one point trip it on the second
	// run; the third is refused at the gate with nothing spent.
	for i, want := range [][]string{{"start/1", "failure/1/permanent"}, {"start/1", "failure/1/permanent", "quarantined/1/permanent"}} {
		r := b.open(fmt.Sprintf("poison-%d", i), 9)
		lc.Begin(r, &g)
		lc.Settle(r, &g, permanentAttempt, false)
		expect(r.Result.Run.ID, r, false, want, runFailed, failed)
		if r.Result.Quarantined != (i == 1) {
			t.Errorf("%s: quarantined=%v", r.Result.Run.ID, r.Result.Quarantined)
		}
	}
	gated := b.open("poison-2", 9)
	if lc.Admit(gated, &g, "w1") {
		t.Error("a quarantined point was admitted")
	}
	expect("gate", gated, false, []string{"quarantined/0"}, []cheetah.RunStatus{cheetah.RunFailed}, failed)
	if res := gated.Result; !res.Quarantined || res.Attempts != 0 || res.Err != "sweep point i=9 quarantined" {
		t.Errorf("gated result %+v", res)
	}

	// An engine that has halted retries gets none; one that paces retries by
	// requeueing is granted them without a delay drawn or reported.
	r := b.open("halted", 3)
	lc.Begin(r, &g)
	lc.Settle(r, &g, transientAttempt, true)
	expect("halted", r, false, []string{"start/1", "failure/1/transient"}, runFailed, failed)
	r = b.open("requeued", 7)
	lc.Begin(r, &g)
	lc.Requeues = true
	d = lc.Settle(r, &g, transientAttempt, false)
	lc.Requeues = false
	if d != (Decision{}) {
		t.Errorf("requeued retry decided %+v, want a retry with no delay", d)
	}
	expect("requeued retry", nil, false, []string{"start/1", "failure/1/transient"}, running, nil)
	d = lc.Settle(r, &g, okAttempt, false)
	expect("requeued success", r, false, []string{"success/2"}, []cheetah.RunStatus{cheetah.RunSucceeded}, []provenance.Status{provenance.StatusSucceeded})

	// A retry granted and then given up ends failed on the failure already
	// journaled. Seven runs are terminal before it, four of them failed: it
	// is the eighth, 5/8 > 0.5 — concluding it trips the stop condition, once.
	r = b.open("given-up", 4)
	lc.Begin(r, &g)
	d = lc.Settle(r, &g, transientAttempt, false)
	if d.Terminal || d.Delay < time.Second {
		t.Errorf("paced retry decided %+v, want a retry after at least the base delay", d)
	}
	expect("retry granted", nil, false, []string{"start/1", "failure/1/transient"}, running, nil)
	lc.GiveUp(r, &g, transientAttempt)
	expect("given up", r, true, nil, []cheetah.RunStatus{cheetah.RunFailed}, failed)
	if r.Result.Attempts != 1 || r.Result.Err != "flaky" {
		t.Errorf("given-up result %+v", r.Result)
	}

	// Aborted: the latch alone halts nothing — that is the engine's call — and
	// a later failure does not announce the abort again; what is left is
	// skipped — journaled and in provenance, with no status line, so a resume
	// still owes it.
	r = b.open("after-abort", 5)
	lc.Begin(r, &g)
	if d = lc.Settle(r, &g, transientAttempt, false); d.Terminal {
		t.Errorf("after the abort, not halted: decided %+v, want a retry", d)
	}
	expect("after abort", nil, false, []string{"start/1", "failure/1/transient"}, running, nil)
	lc.Begin(r, &g)
	lc.Settle(r, &g, okAttempt, false)
	expect("after abort, retried", r, false, []string{"start/2", "success/2"}, []cheetah.RunStatus{cheetah.RunSucceeded}, []provenance.Status{provenance.StatusSucceeded})
	r = b.open("after-abort-halted", 8)
	lc.Begin(r, &g)
	lc.Settle(r, &g, transientAttempt, true)
	expect("after abort, halted", r, false, []string{"start/1", "failure/1/transient"}, runFailed, failed)
	skipped := b.open("skipped", 6)
	lc.Skip(skipped, &g)
	expect("skip", nil, false, []string{"skipped/0"}, nil, []provenance.Status{provenance.StatusSkipped})
	if !skipped.Terminal() || skipped.Result.Status != provenance.StatusSkipped {
		t.Errorf("skipped result %+v", skipped.Result)
	}

	report := lc.Controller.Report(12)
	want := resilience.CompletenessReport{Total: 12, Succeeded: 3, Cached: 1, Failed: 4, Quarantined: 2, Skipped: 1, Retries: 3,
		Aborted: true, Reason: "failure fraction 0.62 exceeds 0.50 after 8 runs", Points: []string{"i=9"}}
	if !reflect.DeepEqual(report, want) {
		t.Errorf("report %+v\nwant   %+v", report, want)
	}
	aborts, delays := 0, map[string]string{}
	for _, ev := range b.events.Snapshot() {
		switch ev.Type {
		case eventlog.CampaignAborted:
			aborts++
			if ev.Span != 77 || ev.Attr("campaign") != "table" {
				t.Errorf("campaign.aborted %+v, want under the campaign span", ev)
			}
		case eventlog.RunQuarantined:
			if ev.Attr("attempts") == "" {
				t.Errorf("run.quarantined %+v lacks attempts", ev)
			}
		case eventlog.RunRetry:
			delays[ev.Attr("run")] = ev.Attr("delay_ms")
		}
	}
	if aborts != 1 {
		t.Errorf("%d campaign.aborted events, want 1", aborts)
	}
	if delays["requeued"] != "" || delays["given-up"] == "" || delays["after-abort"] == "" {
		t.Errorf("run.retry delay_ms by run %v, want none for the requeued retry and one for each paced", delays)
	}
}

// TestLifecycleWithoutSinks: with no journal and no provenance store the
// lifecycle builds neither record — and never reads the journal clock; with
// no quarantine either, it never makes the run's point key.
func TestLifecycleWithoutSinks(t *testing.T) {
	lc := &Lifecycle{Controller: resilience.NewController(resilience.Config{
		Now: func() time.Time { t.Error("journal clock read without a journal"); return time.Time{} },
	})}
	var g Group
	r := NewRunState(cheetah.Run{ID: "bare"}, new(RunResult))
	lc.Admit(&r, &g, "")
	lc.Begin(&r, &g)
	if d := lc.Settle(&r, &g, okAttempt, false); !d.Terminal || lc.Conclude(&r, "") {
		t.Fatalf("decision %+v", d)
	}
	if len(g.journal) != 0 || len(g.prov) != 0 {
		t.Errorf("journal %v provenance %v, want neither", g.journal, g.prov)
	}
	if r.point != "" {
		t.Errorf("point key %q made with neither journal nor quarantine", r.point)
	}
	if got := statuses(&g); !reflect.DeepEqual(got, []cheetah.RunStatus{cheetah.RunRunning, cheetah.RunSucceeded}) {
		t.Errorf("status lines %v", got)
	}
}

package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/remote"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// updateEquivalence rewrites testdata/equivalence from the code under test.
// The committed files were generated at the commit before the run lifecycle
// was extracted (three hand-written copies, one per engine); the test holds
// the single copy to them.
var updateEquivalence = flag.Bool("update-equivalence", false, "rewrite testdata/equivalence/*.json")

// equivCampaign is one seeded campaign of the equivalence scenario. Two are
// needed: SimEngine and the remote coordinator requeue a retried run behind
// every run not yet dispatched, so with one node or one single-slot worker a
// run that retries to success always settles after the runs an abort would
// skip — one campaign cannot hold both and give the same table from all three
// engines.
type equivCampaign struct {
	name string
	runs []cheetah.Run
	stop resilience.StopPolicy
	// cached names the runs found in a memo (LocalEngine's, or the remote
	// worker's). SimEngine has no memo and executes them.
	cached []string
}

func equivRun(id, kind string, i int) cheetah.Run {
	return cheetah.Run{ID: id, Group: "g", Sweep: "s", Index: i,
		Params: map[string]string{"kind": kind, "i": fmt.Sprint(i)}}
}

func equivCampaigns() []equivCampaign {
	return []equivCampaign{{
		// success, cached (twice), transient-then-success, permanent failure,
		// and one poisoned sweep point shared by three runs: the first fails,
		// the second trips the breaker, the third is refused at the gate.
		name: "equiv-retry",
		runs: []cheetah.Run{
			equivRun("a00", "ok", 0),
			equivRun("a01", "ok", 1),
			equivRun("a02", "ok", 2),
			equivRun("a03", "flaky", 3),
			equivRun("a04", "broken", 4),
			equivRun("a05", "poison", 5),
			equivRun("a06", "poison", 5),
			equivRun("a07", "poison", 5),
			equivRun("a08", "ok", 8),
		},
		cached: []string{"a01", "a02"},
	}, {
		// The fifth terminal outcome is the third failure: 3/5 > 0.5 trips the
		// stop condition and the rest is skipped.
		name: "equiv-abort",
		runs: []cheetah.Run{
			equivRun("b00", "ok", 0),
			equivRun("b01", "broken", 1),
			equivRun("b02", "broken", 2),
			equivRun("b03", "ok", 3),
			equivRun("b04", "broken", 4),
			equivRun("b05", "ok", 5),
			equivRun("b06", "ok", 6),
		},
		stop: resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 4},
	}}
}

// equivFault is the scenario's payload, a function of (run, attempt) alone.
func equivFault(run cheetah.Run, attempt int) error {
	switch run.Params["kind"] {
	case "flaky":
		if attempt == 1 {
			return resilience.MarkTransient(fmt.Errorf("flaky %s attempt %d", run.ID, attempt))
		}
	case "broken":
		return resilience.MarkPermanent(fmt.Errorf("broken %s", run.ID))
	case "poison":
		return resilience.MarkPermanent(fmt.Errorf("poison point i=%s", run.Params["i"]))
	}
	return nil
}

// equivExecutor counts attempts per run for equivFault.
type equivExecutor struct {
	mu       sync.Mutex
	attempts map[string]int
}

func (e *equivExecutor) Execute(run cheetah.Run) error {
	e.mu.Lock()
	if e.attempts == nil {
		e.attempts = map[string]int{}
	}
	e.attempts[run.ID]++
	n := e.attempts[run.ID]
	e.mu.Unlock()
	return equivFault(run, n)
}

func equivResilience(c equivCampaign, journal *resilience.Journal) *resilience.Config {
	return &resilience.Config{
		Retry:           resilience.RetryPolicy{MaxAttempts: 3},
		QuarantineAfter: 2,
		Stop:            c.stop,
		Journal:         journal,
		Sleep:           func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		Seed:            1,
	}
}

const equivComponent = "sha256:equivalence-component"

// equivMemo opens a memo under dir with the given runs already recorded.
func equivMemo(t *testing.T, dir string, c equivCampaign, warm ...string) *savanna.Memo {
	t.Helper()
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := cas.OpenActionCache(filepath.Join(dir, "cas", "actions.json"), store)
	if err != nil {
		t.Fatal(err)
	}
	memo := &savanna.Memo{Cache: cache, ComponentDigest: equivComponent}
	for _, id := range warm {
		for _, run := range c.runs {
			if run.ID == id {
				if _, err := memo.Record(run); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return memo
}

// equivTrace is what one engine left behind for one campaign, with clock
// readings masked: the golden file's unit.
type equivTrace struct {
	Journal    []resilience.AttemptRecord    `json:"journal"`
	Status     []string                      `json:"status_log,omitempty"`
	Provenance []provenance.Record           `json:"provenance,omitempty"`
	Results    []savanna.RunResult           `json:"results,omitempty"`
	Report     resilience.CompletenessReport `json:"report"`
	Events     [][2]string                   `json:"events"`
	// SimFailed and SimCompleted are SimEngine's CampaignOutcome.
	SimFailed    []string `json:"sim_failed,omitempty"`
	SimCompleted []int    `json:"sim_completed_per_allocation,omitempty"`

	metrics *telemetry.Registry
	events  []eventlog.Event
	prov    []provenance.Record
}

// equivSinks is the durable side of one engine run.
type equivSinks struct {
	dir     string
	journal *resilience.Journal
	prov    *provenance.Store
	events  *eventlog.Log
	tracer  *telemetry.Tracer
	metrics *telemetry.Registry
}

func newEquivSinks(t *testing.T) *equivSinks {
	t.Helper()
	dir := t.TempDir()
	journal, err := resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	return &equivSinks{dir: dir, journal: journal, prov: provenance.NewStore(),
		events: eventlog.NewLog(), tracer: telemetry.NewTracer(), metrics: telemetry.NewRegistry()}
}

// trace reads the sinks back and masks what a clock wrote.
func (s *equivSinks) trace(t *testing.T, campaign string, results []savanna.RunResult, report resilience.CompletenessReport) *equivTrace {
	t.Helper()
	if err := s.journal.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := resilience.ReadJournalFile(s.journal.Path())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].Time = time.Time{}
	}
	tr := &equivTrace{Journal: recs, Report: report, metrics: s.metrics, events: s.events.Snapshot()}
	if data, err := os.ReadFile(filepath.Join(s.dir, "status.log")); err == nil {
		tr.Status = strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	}
	tr.prov = s.prov.Select(provenance.Query{CampaignID: campaign})
	for _, rec := range tr.prov {
		rec.Start, rec.End = time.Time{}, time.Time{}
		tr.Provenance = append(tr.Provenance, rec)
	}
	for _, r := range results {
		r.Seconds = 0
		tr.Results = append(tr.Results, r)
	}
	for _, ev := range tr.events {
		if strings.HasPrefix(ev.Type, "run.") || strings.HasPrefix(ev.Type, "campaign.") {
			tr.Events = append(tr.Events, [2]string{ev.Type, ev.Attr("run")})
		}
	}
	return tr
}

func equivLocal(t *testing.T, c equivCampaign) *equivTrace {
	s := newEquivSinks(t)
	eng := &savanna.LocalEngine{
		Executor: &equivExecutor{}, Workers: 1,
		Prov: s.prov, CampaignDir: s.dir, Resilience: equivResilience(c, s.journal),
		Memo:   equivMemo(t, s.dir, c, c.cached...),
		Tracer: s.tracer, Metrics: s.metrics, Events: s.events,
	}
	results, report, err := eng.RunCampaign(context.Background(), c.name, c.runs)
	if err != nil {
		t.Fatal(err)
	}
	return s.trace(t, c.name, results, report)
}

func equivRemote(t *testing.T, c equivCampaign) *equivTrace {
	s := newEquivSinks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := &remote.Engine{
		Listener: ln, BatchSize: 1, LeaseTTL: 2 * time.Second,
		Prov: s.prov, CampaignDir: s.dir, Resilience: equivResilience(c, s.journal),
		Tracer: s.tracer, Metrics: s.metrics, Events: s.events,
	}
	wk := &remote.Worker{
		Name: "w0", Addr: ln.Addr().String(), Executor: &equivExecutor{}, Slots: 1,
		Memo: equivMemo(t, t.TempDir(), c, c.cached...),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- wk.Run(ctx) }()
	results, report, err := eng.RunCampaign(context.Background(), c.name, c.runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Errorf("worker: %v", err)
	}
	return s.trace(t, c.name, results, report)
}

func equivSim(t *testing.T, c equivCampaign) *equivTrace {
	s := newEquivSinks(t)
	eng := &savanna.SimEngine{
		Durations: savanna.LogNormalDurations(10, 0.1), Seed: 7,
		FaultModel: func(run cheetah.Run, attempt int, _ *rand.Rand) error { return equivFault(run, attempt) },
		Resilience: equivResilience(c, s.journal),
		Tracer:     s.tracer, Metrics: s.metrics, Events: s.events,
	}
	out, err := eng.RunToCompletion(c.runs, 1, 1e6, savanna.Dynamic, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.trace(t, c.name, nil, out.Report)
	tr.SimFailed, tr.SimCompleted = out.Failed, out.PerAllocationCompleted
	return tr
}

// terminalRow is a journal projected onto one run: how it ended and after how
// many executions.
type terminalRow struct {
	Verb     string
	Attempts int
	Class    resilience.Class // the terminal record's failure class
}

// equivTable projects a journal onto (run, terminal verb, attempts, class) and checks
// on the way that every run of the campaign ends in exactly one terminal
// record.
func equivTable(t *testing.T, c equivCampaign, journal []resilience.AttemptRecord) map[string]terminalRow {
	t.Helper()
	table := map[string]terminalRow{}
	executed := map[string]int{}
	for _, r := range journal {
		switch r.Event {
		case resilience.AttemptSuccess, resilience.AttemptFailure:
			executed[r.Run] = r.Attempt
		}
		terminal := false
		switch r.Event {
		case resilience.AttemptSuccess, resilience.AttemptCached, resilience.AttemptQuarantined, resilience.AttemptSkipped:
			terminal = true
		}
		if !terminal {
			continue
		}
		if prev, dup := table[r.Run]; dup {
			t.Errorf("%s: run %s has two terminal records, %s and %s", c.name, r.Run, prev.Verb, r.Event)
		}
		table[r.Run] = terminalRow{Verb: r.Event, Attempts: executed[r.Run], Class: r.Class}
	}
	for _, run := range c.runs {
		if _, ok := table[run.ID]; ok {
			continue
		}
		// A run that spent its budget or failed permanently ends on its last
		// failure record.
		if n := executed[run.ID]; n > 0 {
			table[run.ID] = terminalRow{Verb: resilience.AttemptFailure, Attempts: n}
			continue
		}
		t.Errorf("%s: run %s has no terminal record", c.name, run.ID)
	}
	return table
}

// equivEngines are the three drivers of the scenario: LocalEngine with one
// worker, the remote plane with one single-slot worker over loopback,
// SimEngine with one node.
var equivEngines = []struct {
	name string
	// attempts is the engine's run_attempts histogram.
	attempts string
	run      func(*testing.T, equivCampaign) *equivTrace
}{
	{"local", "savanna.run_attempts", equivLocal},
	{"remote", "remote.run_attempts", equivRemote},
	{"sim", "savanna.run_attempts", equivSim},
}

// TestThreeEngineEquivalence runs the seeded scenario through all three
// engines, compares everything each left behind with the golden files
// generated before the lifecycle was unified, and checks that all three
// journals project onto the same (run, terminal verb, attempts, class)
// table: a quarantined record keeps the class of the failure that tripped
// the breaker, whichever engine wrote it.
func TestThreeEngineEquivalence(t *testing.T) {
	traces := map[string]map[string]*equivTrace{}
	for _, eng := range equivEngines {
		traces[eng.name] = map[string]*equivTrace{}
		for _, c := range equivCampaigns() {
			traces[eng.name][c.name] = eng.run(t, c)
		}
		got, err := json.MarshalIndent(traces[eng.name], "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "equivalence", eng.name+".json")
		if *updateEquivalence {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s engine diverges from %s:\n%s", eng.name, path, firstDifference(want, got))
		}
	}

	for _, c := range equivCampaigns() {
		local := equivTable(t, c, traces["local"][c.name].Journal)
		remoteTable := equivTable(t, c, traces["remote"][c.name].Journal)
		sim := equivTable(t, c, traces["sim"][c.name].Journal)
		// SimEngine has no memo: what the others find cached it executes once.
		for _, id := range c.cached {
			if sim[id] != (terminalRow{Verb: resilience.AttemptSuccess, Attempts: 1}) {
				t.Errorf("%s: sim row %s = %+v, want success after 1 attempt", c.name, id, sim[id])
			}
			sim[id] = terminalRow{Verb: resilience.AttemptCached}
		}
		for _, run := range c.runs {
			if l, r, s := local[run.ID], remoteTable[run.ID], sim[run.ID]; l != r || l != s {
				t.Errorf("%s: run %s ends local %+v, remote %+v, sim %+v", c.name, run.ID, l, r, s)
			}
		}
	}
}

// TestThreeEngineAgreement checks what the golden files mask or leave out,
// and what the three hand-written lifecycles used to say differently: a
// failed run's provenance spans the run's seconds whichever engine wrote it
// (the coordinator's said zero), every engine observes a run_attempts
// histogram (the coordinator had none), and every run.quarantined event
// carries the attempts spent (the coordinator's, and SimEngine's at the gate,
// did not).
func TestThreeEngineAgreement(t *testing.T) {
	for _, eng := range equivEngines {
		for _, c := range equivCampaigns() {
			tr := eng.run(t, c)
			name := eng.name + "/" + c.name
			table := equivTable(t, c, tr.Journal)

			for _, rec := range tr.prov {
				id := rec.ID[len(c.name)+1 : strings.IndexByte(rec.ID, '#')]
				if table[id].Verb == resilience.AttemptFailure && !rec.End.After(rec.Start) {
					t.Errorf("%s: failed run %s has provenance of zero length (%v to %v)", name, id, rec.Start, rec.End)
				}
			}

			var count uint64
			var sum float64
			for _, row := range table {
				if row.Attempts > 0 {
					count++
					sum += float64(row.Attempts)
				}
			}
			found := false
			for _, h := range tr.metrics.Snapshot().Histograms {
				if h.Name == eng.attempts {
					found = true
					if h.Count != count || h.Sum != sum {
						t.Errorf("%s: %s observed %d runs, %v attempts; the journal says %d runs, %v attempts",
							name, eng.attempts, h.Count, h.Sum, count, sum)
					}
				}
			}
			if !found {
				t.Errorf("%s: no %s histogram", name, eng.attempts)
			}

			for _, ev := range tr.events {
				if ev.Type == eventlog.RunQuarantined && ev.Attr("attempts") != fmt.Sprint(table[ev.Attr("run")].Attempts) {
					t.Errorf("%s: run.quarantined of %s says attempts=%q, the journal %d",
						name, ev.Attr("run"), ev.Attr("attempts"), table[ev.Attr("run")].Attempts)
				}
			}
		}
	}
}

// firstDifference renders the first line at which two golden renderings part.
func firstDifference(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			lo := i - 6
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("line %d\n  want: %s\n  got:  %s\ncontext:\n%s", i+1, w[i], g[i], strings.Join(g[lo:i+1], "\n"))
		}
	}
	return fmt.Sprintf("lengths differ: want %d lines, got %d", len(w), len(g))
}

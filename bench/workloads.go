package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
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

// workload is one benchmark workload: its size and how to wire one
// repetition. Closed loop throughout: a slot takes its next run when the
// previous one returns, so client count = slots (never more than nproc).
type workload struct {
	WorkloadSpec
	n, quickN int // runs per campaign; quickN under -quick
	slots     int
	// engine prefixes the engine-specific layer metrics ("savanna"/"remote").
	engine string
	// campaigns is how many campaigns one set-up serves (0 = one). Only
	// memo_warm shares a set-up: its cold campaign costs ~0.5 s and the warm
	// one it measures ~15 ms, so one campaign per set-up would spend the
	// measuring time on set-ups.
	campaigns int
	build     func(env *repEnv) (*campaign, error)
}

// workloads sizes the six workloads. N follows ISSUE 11 where one
// repetition fits the driver's time cap and is cut where it does not
// (README.md, "Sizes").
var workloads = []workload{
	{WorkloadSpec: Workloads[0], n: 5000, quickN: 200, slots: 2, engine: "savanna", build: buildLocalDurable},
	{WorkloadSpec: Workloads[1], n: 40000, quickN: 200, slots: 2, engine: "remote", build: buildRemoteBare},
	{WorkloadSpec: Workloads[2], n: 10000, quickN: 200, slots: 1, engine: "remote", build: buildRemoteDurable},
	{WorkloadSpec: Workloads[3], n: 3000, quickN: 100, slots: 1, engine: "remote", build: buildRemoteDurable},
	{WorkloadSpec: Workloads[4], n: 500, quickN: 100, slots: 2, engine: "savanna", build: buildMemoCold},
	{WorkloadSpec: Workloads[5], n: 500, quickN: 100, slots: 2, engine: "savanna", campaigns: 8, build: buildMemoWarm},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// repEnv is what one repetition is built from. Everything a repetition
// touches is fresh: directory, listener, journal, CAS, telemetry objects.
type repEnv struct {
	w         *workload
	n         int
	campaigns int // campaigns to run over the one set-up
	seed      int64
	dir       string // fresh, empty
	clk       *clock
	rec       *recorder // nil = benchmark tracing off
}

// campaign is one wired repetition: the timed call plus the handles the
// output checks and the counts read back afterwards.
type campaign struct {
	in     *Inputs
	stamps []*stamps // one per executor
	// run is the campaign clock's extent: RunCampaign / Coordinate, call to
	// return.
	run func(ctx context.Context) ([]savanna.RunResult, resilience.CompletenessReport, error)
	// teardown runs after the clock stops; its error is a failed check.
	teardown func() error
	// again wires the next campaign over the same set-up (memo_warm only).
	again func() (*campaign, error)

	campaignDir   string // materialised campaign directory ("" = none)
	statusFiles   bool   // the engine keeps the directory's status files
	journal       string // "" = no journal
	resumeJournal string // journal the resume-ready time is read from
	prov          *provenance.Store
	tracer        *telemetry.Tracer
	metrics       *telemetry.Registry
	events        *eventlog.Log
	// doneCounter names the registry counter that must read N afterwards.
	doneCounter string
	// eventDropsExpected marks wirings whose event ring (16,384) is smaller
	// than the campaign's event count by design.
	eventDropsExpected bool
	wantCached         bool   // memo_warm: every run must come from the cache
	restoreDir         string // memo_warm: where outputs are rematerialised

	counts        seamCounts
	materializeNs int64
	attachStartNs int64 // first Worker.Run start
}

// materialize lays out the campaign directory, timed as a seam call.
func (c *campaign) materialize(env *repEnv) error {
	t0 := env.clk.now()
	dir, err := c.in.Manifest.Materialize(env.dir)
	t1 := env.clk.now()
	env.rec.add("cheetah.Manifest.Materialize", laneSeams, t0, t1)
	c.campaignDir, c.materializeNs = dir, t1-t0
	return err
}

// openJournal opens the repetition's attempt journal and closes it at
// teardown.
func (c *campaign) openJournal(path string) (*resilience.Journal, error) {
	j, err := resilience.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	c.journal, c.resumeJournal = path, path
	c.teardown = j.Close
	return j, nil
}

// telemetryOn gives the campaign the full local telemetry plane, as the
// CLIs wire it (default capacities).
func (c *campaign) telemetryOn(env *repEnv) {
	c.tracer, c.metrics, c.events = telemetry.NewTracer(), telemetry.NewRegistry(), eventlog.NewLog()
	if env.rec != nil {
		countEvents(c.events, &c.counts, env.rec)
	}
}

// buildLocalDurable wires savanna.LocalEngine as cmd/fairctl/resume.go
// does (CampaignDir, Prov, Resilience{Retry 3×/1s, Journal}) plus
// Tracer+Metrics+Events, two workers, null payload.
func buildLocalDurable(env *repEnv) (*campaign, error) {
	in, err := GenerateInputs(env.w.Name, env.n, env.seed)
	if err != nil {
		return nil, err
	}
	c := &campaign{in: in, prov: provenance.NewStore(), statusFiles: true, doneCounter: "savanna.runs_executed_total"}
	if err := c.materialize(env); err != nil {
		return nil, err
	}
	journal, err := c.openJournal(filepath.Join(c.campaignDir, "attempts.jsonl"))
	if err != nil {
		return nil, err
	}
	c.telemetryOn(env)
	st := newStamps(env.clk, env.w.slots, env.n)
	c.stamps = []*stamps{st}
	eng := &savanna.LocalEngine{
		Executor:    &stampedExecutor{st: st},
		Workers:     env.w.slots,
		Prov:        c.prov,
		CampaignDir: c.campaignDir,
		Resilience: &resilience.Config{
			Retry:   resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Second},
			Journal: journal,
		},
		Tracer: c.tracer, Metrics: c.metrics, Events: c.events,
	}
	c.run = func(ctx context.Context) ([]savanna.RunResult, resilience.CompletenessReport, error) {
		return eng.RunCampaign(ctx, in.Campaign, in.Runs)
	}
	return c, nil
}

// outPath is where a memo workload writes (or restores) run i's output
// under dir.
func outPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("run-%05d.out", i))
}

// memoEngine wires LocalEngine + savanna.Memo over the CAS under
// env.dir/cas, journaling to journalPath. The payload writes each run's
// output into its directory of the materialised campaign, where a real
// application leaves it; the engine is given no CampaignDir, so no status
// file blurs the cas ledger. The store and action cache are opened here, so
// a warm campaign loads them from disk as a restarted process would.
func memoEngine(env *repEnv, c *campaign, journalPath string) (*savanna.LocalEngine, *cas.Store, error) {
	store, err := cas.Open(filepath.Join(env.dir, "cas"))
	if err != nil {
		return nil, nil, err
	}
	cache, err := cas.OpenActionCache(filepath.Join(env.dir, "cas", "actions.json"), store)
	if err != nil {
		return nil, nil, err
	}
	journal, err := c.openJournal(journalPath)
	if err != nil {
		return nil, nil, err
	}
	in, dir := c.in, c.campaignDir
	output := func(run cheetah.Run) string { return filepath.Join(dir, run.ID, "out.bin") }
	st := newStamps(env.clk, env.w.slots, env.n)
	c.stamps = []*stamps{st}
	c.prov = provenance.NewStore()
	return &savanna.LocalEngine{
		Executor: &stampedExecutor{st: st, work: func(run cheetah.Run) error {
			return os.WriteFile(output(run), in.Output(run.Index), 0o644)
		}},
		Workers:    env.w.slots,
		Prov:       c.prov,
		Resilience: &resilience.Config{Journal: journal},
		Memo: &savanna.Memo{
			Cache:           cache,
			ComponentDigest: "campaignbench-component",
			Collect: func(run cheetah.Run) (map[string]string, error) {
				return map[string]string{"out": output(run)}, nil
			},
		},
	}, store, nil
}

// buildMemoCold: every run misses, executes (writes its seeded 4 KiB
// output) and is recorded — PutFile + ActionCache.Put per run.
func buildMemoCold(env *repEnv) (*campaign, error) {
	in, err := GenerateInputs(env.w.Name, env.n, env.seed)
	if err != nil {
		return nil, err
	}
	c := &campaign{in: in}
	if err := c.materialize(env); err != nil {
		return nil, err
	}
	eng, _, err := memoEngine(env, c, filepath.Join(env.dir, "attempts.jsonl"))
	if err != nil {
		return nil, err
	}
	c.run = func(ctx context.Context) ([]savanna.RunResult, resilience.CompletenessReport, error) {
		return eng.RunCampaign(ctx, in.Campaign, in.Runs)
	}
	return c, nil
}

// buildMemoWarm runs the cold campaign as set-up, then wires the same
// campaign against the now-warm memo.
func buildMemoWarm(env *repEnv) (*campaign, error) {
	cold, err := buildMemoCold(env)
	if err != nil {
		return nil, err
	}
	_, report, err := cold.run(context.Background())
	if terr := cold.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	if !report.Complete() {
		return nil, fmt.Errorf("memo_warm set-up: cold campaign incomplete: %s", report)
	}
	return wireMemoWarm(env, cold, 0)
}

// wireMemoWarm wires the k-th warm campaign over cold's CAS: fresh journal,
// fresh restore directory, fresh store handles (loaded from disk as a
// restarted process would), Restore = Store.Materialize.
func wireMemoWarm(env *repEnv, cold *campaign, k int) (*campaign, error) {
	c := &campaign{
		in: cold.in, campaignDir: cold.campaignDir, materializeNs: cold.materializeNs,
		wantCached: true, restoreDir: filepath.Join(env.dir, fmt.Sprintf("restore-%d", k)),
	}
	if err := os.MkdirAll(c.restoreDir, 0o755); err != nil {
		return nil, err
	}
	eng, store, err := memoEngine(env, c, filepath.Join(env.dir, fmt.Sprintf("attempts-warm-%d.jsonl", k)))
	if err != nil {
		return nil, err
	}
	c.resumeJournal = cold.journal
	eng.Memo.Restore = func(run cheetah.Run, outputs map[string]cas.Digest) error {
		d, ok := outputs["out"]
		if !ok {
			return fmt.Errorf("cached result of %s has no output", run.ID)
		}
		return store.Materialize(d, outPath(c.restoreDir, run.Index))
	}
	in := c.in
	c.run = func(ctx context.Context) ([]savanna.RunResult, resilience.CompletenessReport, error) {
		return eng.RunCampaign(ctx, in.Campaign, in.Runs)
	}
	c.again = func() (*campaign, error) { return wireMemoWarm(env, cold, k+1) }
	return c, nil
}

// startWorkers attaches single-slot remote.Workers to ln and returns once
// each has dialed (the engine's accept loop, and so the lease grant, start
// with the campaign clock). wire configures each worker before it runs;
// work is the payload. The returned stop waits for every worker to leave.
//
// Attachment is serialised: a worker's hello goes out only after the
// previous worker's lease grant has arrived, and no worker executes before
// the last one has its grant. The coordinator registers a worker before it
// sends the grant (coordinator.go handleConn), so anything that tops workers
// up in between — another worker joining, a result arriving — can put an
// assign on the wire first, and the worker then quits with "expected
// lease-grant" (about one remote_bare campaign in a thousand when two workers join
// at once). A workload on which operations fail measures nothing; README.md
// ("Found on the way") records the race for whoever fixes the engine.
func startWorkers(env *repEnv, c *campaign, addr string, workers int, work func(cheetah.Run) error, wire func(*remote.Worker)) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	dialed := make(chan struct{}, workers) // one send per worker
	errs := make(chan error, workers)      // one send per worker
	granted := make([]chan struct{}, workers)
	for i := range granted {
		granted[i] = make(chan struct{})
	}
	c.attachStartNs = env.clk.now()
	for i := 0; i < workers; i++ {
		st := newStamps(env.clk, 1, env.n)
		c.stamps = append(c.stamps, st)
		wk := &remote.Worker{
			Name:     fmt.Sprintf("w%d", i),
			Addr:     addr,
			Executor: &stampedExecutor{st: st, work: work, ready: granted[workers-1]},
			Slots:    1,
		}
		wire(wk)
		wk.Dial = func() (net.Conn, error) {
			t0 := env.rec.now()
			nc, err := net.Dial("tcp", addr)
			env.rec.add("worker.Dial", laneSeams, t0, env.rec.now())
			dialed <- struct{}{}
			if err != nil {
				return nil, err
			}
			if i > 0 {
				select {
				case <-granted[i-1]:
				case <-ctx.Done():
					nc.Close()
					return nil, ctx.Err()
				}
			}
			if env.rec != nil {
				nc = &countedConn{Conn: nc, bytes: &c.counts.w2cBytes, flushes: &c.counts.w2cFlushes, rec: env.rec, lane: laneWireW2C}
			}
			return &grantedConn{Conn: nc, granted: granted[i]}, nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- wk.Run(ctx)
		}()
	}
	for i := 0; i < workers; i++ {
		<-dialed
	}
	return func() error {
		cancel()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil && !errors.Is(err, context.Canceled) {
				return fmt.Errorf("worker: %w", err)
			}
		}
		return nil
	}
}

func listen(env *repEnv, c *campaign) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if env.rec != nil {
		return &countedListener{Listener: ln, counts: &c.counts, rec: env.rec}, nil
	}
	return ln, nil
}

// buildRemoteBare wires remote.Engine exactly as
// BenchmarkRemoteCampaignScaling (internal/remote/bench_test.go) does:
// batch 32, lease 2 s, 200 ms heartbeats, no journal, directory or
// telemetry; two single-slot workers over 127.0.0.1.
func buildRemoteBare(env *repEnv) (*campaign, error) {
	in, err := GenerateInputs(env.w.Name, env.n, env.seed)
	if err != nil {
		return nil, err
	}
	c := &campaign{in: in}
	ln, err := listen(env, c)
	if err != nil {
		return nil, err
	}
	eng := &remote.Engine{Listener: ln, BatchSize: 32, LeaseTTL: 2 * time.Second}
	c.teardown = startWorkers(env, c, ln.Addr().String(), env.w.slots, nil, func(wk *remote.Worker) {
		wk.Heartbeat = 200 * time.Millisecond
	})
	c.run = func(ctx context.Context) ([]savanna.RunResult, resilience.CompletenessReport, error) {
		return eng.RunCampaign(ctx, in.Campaign, in.Runs)
	}
	return c, nil
}

// buildRemoteDurable wires remote.Coordinate with cmd/fairctl/coordinate.go's
// defaults (batch 8, worker lease 15 s, worker-wait 60 s, coordinator lease
// 3 s, AutoSync 32, CampaignDir, Tracer+Metrics+Events) and one worker as
// cmd/fairctl/worker.go wires it (own tracer, registry and log, so
// telemetry ships). The payload is null, or the seeded spin when the inputs
// carry one (remote_durable_heavytail).
func buildRemoteDurable(env *repEnv) (*campaign, error) {
	in, err := GenerateInputs(env.w.Name, env.n, env.seed)
	if err != nil {
		return nil, err
	}
	c := &campaign{in: in, statusFiles: true, doneCounter: "remote.runs_completed_total", eventDropsExpected: true}
	if err := c.materialize(env); err != nil {
		return nil, err
	}
	ln, err := listen(env, c)
	if err != nil {
		return nil, err
	}
	c.telemetryOn(env)
	c.journal = filepath.Join(c.campaignDir, "attempts.jsonl")
	c.resumeJournal = c.journal
	eng := &remote.Engine{
		Listener:    ln,
		BatchSize:   8,
		LeaseTTL:    15 * time.Second,
		WorkerWait:  60 * time.Second,
		CampaignDir: c.campaignDir,
		Tracer:      c.tracer, Metrics: c.metrics, Events: c.events,
	}
	var work func(cheetah.Run) error
	if in.PayloadNs != nil {
		work = func(run cheetah.Run) error {
			spin(time.Duration(in.PayloadNs[run.Index]))
			return nil
		}
	}
	c.teardown = startWorkers(env, c, ln.Addr().String(), env.w.slots, work, func(wk *remote.Worker) {
		wk.Tracer, wk.Metrics, wk.Events = telemetry.NewTracer(), telemetry.NewRegistry(), eventlog.NewLog()
	})
	c.run = func(ctx context.Context) ([]savanna.RunResult, resilience.CompletenessReport, error) {
		results, report, _, err := remote.Coordinate(ctx, remote.CoordinateConfig{
			Engine:   eng,
			Campaign: in.Campaign,
			Runs:     in.Runs,
			Journal:  c.journal,
			Holder:   "campaignbench",
			LeaseTTL: 3 * time.Second,
			AutoSync: 32,
		})
		return results, report, err
	}
	return c, nil
}

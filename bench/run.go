package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fairflow/internal/expt"
)

// Repetition floors: a workload discards one warm-up repetition, then
// repeats until the measuring time is used and at least this many
// repetitions are in. The traced run alternates untraced and traced
// repetitions, so its floor counts pairs; its ceiling keeps the span buffer
// and the trace file (remote_bare: ~35 MB a traced campaign) bounded.
const (
	minRepetitions = 5
	minTracedPairs = 2
	maxTracedPairs = 3
)

// maxStolenShare is the share of the machine's CPU time the hypervisor may
// give to other guests during a repetition before the untraced run sets the
// repetition aside: it measured the neighbours, not the program. In this
// sandbox runs/s falls by about twice the stolen share, and bursts that take
// 10-50% for tens of seconds come several times an hour (README.md,
// "Repeatability").
const maxStolenShare = 0.01

// Options configures a benchmark run.
type Options struct {
	Seed    int64
	Seconds float64 // measuring time per workload
	Trace   bool    // the separate traced run: per-layer metrics, ledger, trace files
	Quick   bool    // smoke sizes: N ≤ 200, one repetition, no warm-up
	WorkDir string  // user-supplied scratch root ("" = /dev/shm, else the temp dir, else ".")
	OutDir  string  // where trace files go
	Stdout  io.Writer
}

// repetition is one whole campaign's measurements. setupNs is 0 on a
// campaign that shares an earlier one's set-up; stolen is the share of the
// machine's CPU time stolen while its set-up and campaigns ran.
type repetition struct {
	setupNs, wallNs, payloadNs, cpuNs int64
	stolen                            float64
	calls                             int
	gaps                              []int64
	readBack

	// Read only on traced repetitions.
	mallocs, allocBytes         uint64
	spans, provRecords          int
	spansDropped, eventsDropped int64
	c2wBytes, c2wFlushes        int64
	w2cBytes, w2cFlushes        int64
	events                      int64
	attachNs, materializeNs     int64
}

// runRepetition builds one set-up and measures every campaign wired over
// it: one for most workloads, several for memo_warm, whose set-up (a whole
// cold campaign) costs forty times what it measures.
func runRepetition(ctx context.Context, env *repEnv) ([]*repetition, error) {
	runtime.GC() // the previous repetition's garbage is not this one's cost
	t0 := env.clk.now()
	c, err := env.w.build(env)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupNs := env.clk.now() - t0
	var reps []*repetition
	for {
		r, err := runCampaign(ctx, env, c)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		if len(reps) == env.campaigns {
			reps[0].setupNs = setupNs
			return reps, nil
		}
		if c, err = c.again(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
}

// runCampaign runs, tears down and checks one wired campaign.
func runCampaign(ctx context.Context, env *repEnv, c *campaign) (*repetition, error) {
	id := env.rec.reserve()
	var m0, m1 runtime.MemStats
	if env.rec != nil {
		runtime.ReadMemStats(&m0)
	}
	cpu0 := processCPUNs()
	start := env.clk.now()
	results, report, err := c.run(ctx)
	end := env.clk.now()
	cpu1 := processCPUNs()
	if env.rec != nil {
		runtime.ReadMemStats(&m1)
	}
	env.rec.finish(id, "campaign "+env.w.Name, start, end)
	if terr := c.teardown(); err == nil {
		err = terr
	}
	if err == nil {
		err = ctx.Err() // interrupted: the campaign is cut short, not wrong
	}
	if err != nil {
		return nil, err
	}
	r := &repetition{wallNs: end - start, cpuNs: cpu1 - cpu0, materializeNs: c.materializeNs}
	if r.readBack, err = c.check(env, results, report); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	firstEntry := int64(-1)
	for i, st := range c.stamps {
		r.calls += st.calls()
		r.payloadNs += st.payloadNs()
		r.gaps = append(r.gaps, st.gaps()...)
		if st.calls() > 0 && (firstEntry < 0 || st.entry[0] < firstEntry) {
			firstEntry = st.entry[0]
		}
		env.rec.addStamps(st, laneSlot0+i)
	}
	if c.attachStartNs > 0 && firstEntry >= 0 {
		r.attachNs = firstEntry - c.attachStartNs
	}
	if env.rec != nil {
		r.mallocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		r.spans, r.spansDropped = len(c.tracer.Snapshot()), c.tracer.Dropped()
		r.eventsDropped = c.events.Dropped()
		if c.prov != nil {
			r.provRecords = c.prov.Len()
		}
		r.c2wBytes, r.c2wFlushes = c.counts.c2wBytes.Load(), c.counts.c2wFlushes.Load()
		r.w2cBytes, r.w2cFlushes = c.counts.w2cBytes.Load(), c.counts.w2cFlushes.Load()
		r.events = c.counts.events.Load()
	}
	return r, nil
}

// Run executes the named workloads (all six when names is empty) and
// returns the result. The work directory's unique child is removed on every
// path out, an interrupt (ctx) included.
func Run(ctx context.Context, opts Options, names ...string) (*Result, error) {
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	wd, err := newWorkDir(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	defer wd.remove()
	res := &Result{
		Seed: opts.Seed, Seconds: opts.Seconds, Trace: opts.Trace, Quick: opts.Quick,
		WorkdirFS: wd.fs, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	for _, name := range names {
		w := findWorkload(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		wr, err := runWorkload(ctx, opts, w, wd)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Workloads = append(res.Workloads, *wr)
		wr.print(opts.Stdout)
	}
	return res, nil
}

func runWorkload(ctx context.Context, opts Options, w *workload, wd *workDir) (*WorkloadResult, error) {
	n := w.n
	if opts.Quick {
		n = w.quickN
	}
	clk := newClock()
	var rec *recorder
	if opts.Trace {
		rec = newRecorder(clk, fmt.Sprintf("%s-seed%d", w.Name, opts.Seed))
	}
	campaigns := max(w.campaigns, 1)
	if opts.Quick {
		campaigns = min(campaigns, 2)
	}
	one := func(rec *recorder) ([]*repetition, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dir, err := wd.sub("rep-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		stolen0, t0 := stolenNs(), time.Now()
		reps, err := runRepetition(ctx, &repEnv{w: w, n: n, campaigns: campaigns, seed: opts.Seed, dir: dir, clk: clk, rec: rec})
		stolen := float64(stolenNs()-stolen0) / (float64(time.Since(t0)) * float64(runtime.NumCPU()))
		for _, r := range reps {
			r.stolen = stolen
		}
		return reps, err
	}

	if !opts.Quick {
		if _, err := one(nil); err != nil { // warm-up, discarded
			return nil, err
		}
	}
	budget, floor := time.Duration(opts.Seconds*float64(time.Second)), minRepetitions
	if opts.Trace {
		// Half the time for campaigns, the rest for the layer replay.
		budget, floor = budget/2, minTracedPairs
	}
	var plain, traced []*repetition
	for begin, setups := time.Now(), 0; ; {
		rs, err := one(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rs...)
		if opts.Trace {
			if rs, err = one(rec); err != nil {
				return nil, err
			}
			traced = append(traced, rs...)
		}
		setups++
		if opts.Quick || (time.Since(begin) >= budget && setups >= floor) || (opts.Trace && setups == maxTracedPairs) {
			break
		}
	}

	wr := &WorkloadResult{Name: w.Name, Runs: n, Slots: w.slots, Attempted: n * len(plain)}
	for _, r := range plain {
		wr.Failed += r.failedRuns
	}
	if !opts.Trace {
		kept := undisturbed(plain)
		wr.Repetitions, wr.SetAside = len(kept), len(plain)-len(kept)
		wr.Metrics = endToEnd(kept, n, w.slots)
		return wr, nil
	}
	wr.Repetitions = len(plain)

	// Traced run: counts from the wrapped seams, unit costs from the layer
	// replay, then the ledger.
	replayDir, err := wd.sub("replay-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(replayDir)
	diskDir, err := os.MkdirTemp(".", ".campaignbench-disk-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(diskDir)
	wr.perLayer(w, plain, traced, n)
	sh := shape{
		remote:     w.engine == "remote",
		traced:     w.Name == RemoteDurable || w.Name == RemoteHeavy,
		assignRuns: 1,
		casN:       n,
	}
	if assigns := wr.Metrics["stream.wire_flushes_c2w_per_run"].Value - 1; assigns > 0 {
		sh.assignRuns = max(int(1/assigns+0.5), 1)
	}
	replayID := rec.reserve()
	replayStart := clk.now()
	units, err := runLayerReplay(clk, rec, replayDir, diskDir, sh, opts.Quick)
	if err != nil {
		return nil, err
	}
	rec.finish(replayID, "layer replay", replayStart, clk.now())
	for name, s := range units {
		wr.set(name, s)
	}
	wr.ledger(w)
	path := filepath.Join(opts.OutDir, w.Name+".trace.json")
	if err := rec.writeChrome(path); err != nil {
		return nil, err
	}
	wr.TraceFile = path
	return wr, nil
}

// undisturbed keeps, in the order they ran, the repetitions during which at
// most maxStolenShare of the CPU time was stolen — and always the
// minRepetitions set-ups that lost the least, so a run made entirely under a
// noisy neighbour still reports its quietest part.
func undisturbed(reps []*repetition) []*repetition {
	var setups []float64
	for _, r := range reps {
		if r.setupNs > 0 {
			setups = append(setups, r.stolen)
		}
	}
	sort.Float64s(setups)
	limit := maxStolenShare
	if k := min(minRepetitions, len(setups)); k > 0 {
		limit = max(limit, setups[k-1])
	}
	var kept []*repetition
	for _, r := range reps {
		if r.stolen <= limit {
			kept = append(kept, r)
		}
	}
	return kept
}

// endToEnd computes the gated metrics: per repetition, then the median
// over repetitions.
func endToEnd(reps []*repetition, n, slots int) map[string]MetricValue {
	var rps, overhead, setup []float64
	for _, r := range reps {
		rps = append(rps, float64(n)/seconds(r.wallNs))
		overhead = append(overhead, micros(r.wallNs)/float64(n)-micros(r.payloadNs)/float64(n*slots))
		if r.setupNs > 0 {
			setup = append(setup, seconds(r.setupNs))
		}
	}
	values := map[string][]float64{metricRunsPerS: rps, metricOverhead: overhead, metricSetup: setup}
	out := map[string]MetricValue{}
	for _, m := range EndToEnd {
		out[m.Name] = MetricValue{Summary: summarize(values[m.Name]), Metric: m, Values: values[m.Name]}
	}
	return out
}

// perLayer fills the count-style and campaign-level layer metrics: timings
// from the untraced repetitions, counts from the traced ones.
func (wr *WorkloadResult) perLayer(w *workload, plain, traced []*repetition, n int) {
	wr.Metrics = map[string]MetricValue{}
	for _, m := range PerLayer {
		wr.Metrics[m.Name] = MetricValue{Metric: m} // idle layers read 0
	}
	fn := float64(n)
	over := func(reps []*repetition, f func(*repetition) float64) Summary {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return summarize(xs)
	}
	rps := func(r *repetition) float64 { return fn / seconds(r.wallNs) }

	wr.set("campaign.slot_busy_fraction", over(plain, func(r *repetition) float64 {
		return float64(r.payloadNs) / float64(r.wallNs*int64(w.slots))
	}))
	wr.set("campaign.failed_run_fraction", Summary{Value: float64(wr.Failed) / float64(wr.Attempted), N: len(plain)})
	wr.set("campaign.cpu_us_per_run", over(plain, func(r *repetition) float64 { return micros(r.cpuNs) / fn }))
	wr.set("campaign.cpu_lanes", over(plain, func(r *repetition) float64 { return float64(r.cpuNs) / float64(r.wallNs) }))
	wr.set("bench.payload_mean_us", over(plain, func(r *repetition) float64 {
		if r.calls == 0 {
			return 0
		}
		return micros(r.payloadNs) / float64(r.calls)
	}))
	wr.set("bench.trace_overhead_fraction", Summary{Value: 1 - over(traced, rps).Value/over(plain, rps).Value, N: len(traced)})
	wr.wallOverheadUs = endToEnd(plain, n, w.slots)[metricOverhead].Value
	wr.cpuOverheadUs = over(plain, func(r *repetition) float64 { return micros(r.cpuNs-r.payloadNs) / fn }).Value

	var gaps []float64
	for _, r := range plain {
		for _, g := range r.gaps {
			gaps = append(gaps, micros(g))
		}
	}
	if len(gaps) > 0 {
		sort.Float64s(gaps)
		wr.GapSamples = len(gaps)
		wr.set(w.engine+".dispatch_gap_p50_us", Summary{Value: expt.Quantile(gaps, 0.5), N: len(gaps)})
		wr.set(w.engine+".dispatch_gap_p99_us", Summary{Value: expt.Quantile(gaps, 0.99), N: len(gaps)})
	}

	wr.set("resilience.resume_ready_ms", over(plain, func(r *repetition) float64 { return micros(r.resumeNs) / 1e3 }))
	wr.set("resilience.replay_us_per_record", over(plain, func(r *repetition) float64 {
		if r.resumeRecords == 0 {
			return 0
		}
		return micros(r.resumeNs) / float64(r.resumeRecords)
	}))
	wr.set("cheetah.materialize_us_per_run", over(plain, func(r *repetition) float64 { return micros(r.materializeNs) / fn }))
	wr.set("remote.worker_attach_ms", over(plain, func(r *repetition) float64 { return micros(r.attachNs) / 1e3 }))

	perRun := func(name string, f func(*repetition) float64) {
		wr.set(name, over(traced, func(r *repetition) float64 { return f(r) / fn }))
	}
	perRun("resilience.journal_records_per_run", func(r *repetition) float64 { return float64(r.journalRecords) })
	perRun("resilience.journal_bytes_per_run", func(r *repetition) float64 { return float64(r.journalBytes) })
	perRun("provenance.records_per_run", func(r *repetition) float64 { return float64(r.provRecords) })
	perRun("telemetry.spans_per_run", func(r *repetition) float64 { return float64(r.spans) })
	perRun("eventlog.events_per_run", func(r *repetition) float64 { return float64(r.events) })
	perRun("stream.wire_bytes_c2w_per_run", func(r *repetition) float64 { return float64(r.c2wBytes) })
	perRun("stream.wire_bytes_w2c_per_run", func(r *repetition) float64 { return float64(r.w2cBytes) })
	perRun("stream.wire_flushes_c2w_per_run", func(r *repetition) float64 { return float64(r.c2wFlushes) })
	perRun("stream.wire_flushes_w2c_per_run", func(r *repetition) float64 { return float64(r.w2cFlushes) })
	perRun(w.engine+".allocs_per_run", func(r *repetition) float64 { return float64(r.mallocs) })
	perRun(w.engine+".alloc_bytes_per_run", func(r *repetition) float64 { return float64(r.allocBytes) })
	wr.set("telemetry.spans_dropped", over(traced, func(r *repetition) float64 { return float64(r.spansDropped) }))
	wr.set("eventlog.dropped", over(traced, func(r *repetition) float64 { return float64(r.eventsDropped) }))
}

// ledger prices the call plan and files the residual and named fraction.
func (wr *WorkloadResult) ledger(w *workload) {
	m := map[string]float64{}
	for name, v := range wr.Metrics {
		m[name] = v.Value
	}
	residual := "savanna.engine_self_us_per_run"
	if w.engine == "remote" {
		residual = "remote.coordinator_self_us_per_run"
	}
	rows, named := buildLedger(w.Name, residual, m, wr.cpuOverheadUs)
	wr.Ledger = rows
	wr.set("ledger.named_fraction", Summary{Value: named, N: 1})
	wr.set(residual, Summary{Value: rows[len(rows)-1].UsPerRun, N: 1})
}

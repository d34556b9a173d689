// Benchmarks regenerating the data behind every figure of the paper's
// evaluation (Section V), plus the ablations DESIGN.md calls out. Each
// benchmark runs a reduced-scale configuration per iteration and reports
// the figure's headline metric via b.ReportMetric; cmd/experiments runs the
// paper-scale versions.
package fairflow_test

import (
	"context"
	"fmt"
	"testing"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/ckpt"
	"fairflow/internal/experiments"
	"fairflow/internal/expt"
	"fairflow/internal/monitor"
	"fairflow/internal/savanna"
	"fairflow/internal/stream"
	"fairflow/internal/tabular"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// --- EXP-A / Fig. 2: GWAS paste -----------------------------------------

func benchGWASConfig(seed int64) experiments.GWASPasteConfig {
	return experiments.GWASPasteConfig{
		Samples: 64, SNPs: 1000, FanIn: 16, Parallelism: 4, Seed: seed,
	}
}

// BenchmarkGWASPasteWorkflow regenerates Fig. 2: the full generate→paste
// pipeline, reporting the manual-vs-model intervention counts.
func BenchmarkGWASPasteWorkflow(b *testing.B) {
	var res *experiments.GWASPasteResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunGWASPaste(benchGWASConfig(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Interventions.Manual), "manual-interventions")
	b.ReportMetric(float64(res.Interventions.ModelDriven), "model-interventions")
}

// BenchmarkGWASPasteWarmRerun contrasts a cold paste-plan execution (every
// task pastes, outputs ingested into the content-addressed store) with a
// warm re-run over unchanged inputs (every task hits the action cache, zero
// pastes execute, the final matrix is materialized by hard link). The warm
// path is the memoized-re-execution win: ≥5× faster than cold.
func BenchmarkGWASPasteWarmRerun(b *testing.B) {
	const files, rows, fanIn = 128, 200, 16
	newCache := func(b *testing.B, dir string) *cas.ActionCache {
		store, err := cas.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		cache, err := cas.OpenActionCache(dir+"/actions.json", store)
		if err != nil {
			b.Fatal(err)
		}
		return cache
	}
	runPlan := func(b *testing.B, dir string, inputs []string, cache *cas.ActionCache, stats *tabular.ExecStats) {
		plan, err := tabular.PlanPaste(inputs, dir+"/out.tsv", dir+"/work", fanIn)
		if err != nil {
			b.Fatal(err)
		}
		opts := tabular.ExecOptions{Parallelism: 4, Cache: cache, Stats: stats}
		if _, err := plan.Execute(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		dir := b.TempDir()
		inputs := makeColumns(b, dir, files, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			casDir := b.TempDir() // fresh store each iteration: stays cold
			b.StartTimer()
			runPlan(b, dir, inputs, newCache(b, casDir), nil)
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		inputs := makeColumns(b, dir, files, rows)
		cache := newCache(b, dir+"/cas")
		runPlan(b, dir, inputs, cache, nil) // prime
		var stats tabular.ExecStats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			stats = tabular.ExecStats{}
			runPlan(b, dir, inputs, cache, &stats)
		}
		if len(stats.Executed) != 0 {
			b.Fatalf("warm re-run executed %d paste tasks, want 0", len(stats.Executed))
		}
		b.ReportMetric(float64(len(stats.Executed)), "executed-tasks")
		b.ReportMetric(float64(len(stats.Cached)), "cached-tasks")
	})
}

// BenchmarkGWASPasteTelemetry pins the telemetry contract on the paste
// executor: "off" is the default nil-instrument path (its cost over the
// pre-telemetry executor is a handful of nil checks, required to stay under
// 2% on the GWAS paste workload), "on" runs with a live registry and tracer
// so the full instrumentation cost is visible next to it, and "monitored"
// additionally journals every task event into a subscribed campaign monitor
// — the full observability stack of fairctl watch.
func BenchmarkGWASPasteTelemetry(b *testing.B) {
	const files, rows, fanIn = 64, 200, 16
	run := func(b *testing.B, traced bool, reg *telemetry.Registry, log *eventlog.Log) {
		dir := b.TempDir()
		inputs := makeColumns(b, dir, files, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			plan, err := tabular.PlanPaste(inputs, dir+"/out.tsv", dir+"/work", fanIn)
			if err != nil {
				b.Fatal(err)
			}
			opts := tabular.ExecOptions{Parallelism: 4, Metrics: reg, Events: log}
			if traced {
				opts.Tracer = telemetry.NewTracer() // one buffer per iteration
			}
			if _, err := plan.Execute(context.Background(), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false, nil, nil) })
	b.Run("on", func(b *testing.B) { run(b, true, telemetry.NewRegistry(), nil) })
	b.Run("monitored", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		log := eventlog.NewLog()
		log.SetMetrics(reg)
		monitor.New(monitor.Config{Campaign: "bench"}, reg, log)
		run(b, true, reg, log)
	})
}

// BenchmarkPasteFanIn is the fan-in ablation: the same 128 files pasted
// with different fan-in limits (sub-bench per limit).
func BenchmarkPasteFanIn(b *testing.B) {
	for _, fanIn := range []int{4, 16, 64} {
		b.Run(benchName("fanin", fanIn), func(b *testing.B) {
			dir := b.TempDir()
			inputs := makeColumns(b, dir, 128, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := tabular.PlanPaste(inputs, dir+"/out.tsv", dir+"/work", fanIn)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := plan.Execute(context.Background(), tabular.ExecOptions{Parallelism: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- EXP-B / Fig. 3: checkpoints vs overhead budget ----------------------

// BenchmarkCheckpointOverheadSweep regenerates the Fig. 3 sweep (reduced to
// three budgets per iteration) and reports the saturating checkpoint count.
func BenchmarkCheckpointOverheadSweep(b *testing.B) {
	var last []ckpt.SweepPoint
	for i := 0; i < b.N; i++ {
		cfg := ckpt.DefaultSweepConfig(int64(i))
		cfg.Budgets = []float64{0.02, 0.10, 0.50}
		cfg.RunsPerBudget = 2
		var err error
		last, err = ckpt.OverheadSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last[0].MeanCheckpoints, "ckpts@2%")
	b.ReportMetric(last[len(last)-1].MeanCheckpoints, "ckpts@50%")
}

// --- EXP-B / Fig. 4: run-to-run variation --------------------------------

// BenchmarkCheckpointRunVariation regenerates the Fig. 4 spread and reports
// its range.
func BenchmarkCheckpointRunVariation(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		runs, err := ckpt.RunVariation(ckpt.DefaultSweepConfig(int64(i)), 0.10, 5)
		if err != nil {
			b.Fatal(err)
		}
		counts := make([]float64, len(runs))
		for j, r := range runs {
			counts[j] = float64(r.CheckpointsWritten)
		}
		s := expt.Summarize(counts)
		spread = s.Max - s.Min
	}
	b.ReportMetric(spread, "count-range")
}

// BenchmarkCheckpointPolicyAblation contrasts fixed-interval with the
// overhead-budget policy under identical seeds (the design-choice ablation).
func BenchmarkCheckpointPolicyAblation(b *testing.B) {
	var cmp *ckpt.PolicyComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = ckpt.ComparePolicies(ckpt.DefaultSweepConfig(int64(i)), 5, 0.10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.Fixed.OverheadFraction()*100, "fixed-overhead-%")
	b.ReportMetric(cmp.Budget.OverheadFraction()*100, "budget-overhead-%")
}

// --- EXP-C / Fig. 5: data-scheduler policies ------------------------------

func benchItem(schema *stream.Schema, seq int64) stream.Item {
	return stream.Item{Seq: seq, Payload: stream.Record{Schema: schema, Values: []any{seq}}}
}

func benchSchema() *stream.Schema {
	return &stream.Schema{Name: "bench", Fields: []stream.Field{{Name: "v", Type: stream.TInt64}}}
}

// BenchmarkStreamPolicy measures per-item scheduler cost for each policy of
// the Fig. 5 subgraph.
func BenchmarkStreamPolicy(b *testing.B) {
	cases := []struct {
		name string
		mk   func() stream.Policy
	}{
		{"forward-all", func() stream.Policy { return stream.ForwardAll{} }},
		{"window-count", func() stream.Policy {
			p, _ := stream.NewSlidingWindowCount(64, 64)
			return p
		}},
		{"sample-10", func() stream.Policy {
			p, _ := stream.NewSampleEveryN(10)
			return p
		}},
		{"direct-selection", func() stream.Policy {
			p, _ := stream.NewDirectSelection(4096)
			return p
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sched := stream.NewScheduler()
			sched.Subscribe(func(string, stream.Item) {})
			if err := sched.Install("q", tc.mk()); err != nil {
				b.Fatal(err)
			}
			schema := benchSchema()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sched.Ingest(benchItem(schema, int64(i)))
			}
		})
	}
}

// BenchmarkStreamPolicySwap measures the cost of installing a policy at
// runtime via punctuation — the Fig. 5 runtime-specialisation primitive
// (contrast with regenerating and restarting the deployment).
func BenchmarkStreamPolicySwap(b *testing.B) {
	sched := stream.NewScheduler()
	schema := benchSchema()
	sched.Ingest(benchItem(schema, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := stream.NewDirectSelection(16)
		name := benchName("q", i)
		if err := sched.Punctuate(stream.Punctuation{Op: stream.OpInstall, Queue: name, Policy: p}); err != nil {
			b.Fatal(err)
		}
		if err := sched.Punctuate(stream.Punctuation{Op: stream.OpRemove, Queue: name}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP-D / Figs. 6–7: iRF-LOOP campaign scheduling ----------------------

func benchIRFConfig(seed int64) experiments.IRFLoopConfig {
	return experiments.IRFLoopConfig{
		Features: 200, Nodes: 10, WalltimeSeconds: 3600,
		MedianRunSeconds: 120, Sigma: 1.45, Allocations: 100, Seed: seed,
	}
}

// BenchmarkSavannaWarmResume contrasts a cold campaign execution with a
// warm resume against a primed run memo: every (component digest, sweep
// point, input digests) recipe hits the action cache, so the resume
// executes zero runs. This is the campaign-level half of the memoized
// re-execution story (the paste plan's warm re-run is the task-level half).
func BenchmarkSavannaWarmResume(b *testing.B) {
	const points = 32
	buildCampaign := func() *cheetah.Manifest {
		p, err := cheetah.IntRange("n", cheetah.Application, 1, points, 1)
		if err != nil {
			b.Fatal(err)
		}
		m, err := cheetah.BuildManifest(cheetah.Campaign{
			Name: "warm-resume", App: "work", Account: "ACC",
			Groups: []cheetah.SweepGroup{{
				Name: "g", Nodes: 1, WalltimeMinutes: 1,
				Sweeps: []cheetah.Sweep{{Name: "s", Parameters: []cheetah.Parameter{p}}},
			}},
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	newRegistry := func() *savanna.FuncRegistry {
		reg := savanna.NewFuncRegistry("work")
		reg.Register("work", func(params map[string]string) error {
			// A small deterministic compute load per sweep point.
			acc := uint64(0)
			for i := 0; i < 200_000; i++ {
				acc = acc*1664525 + 1013904223
			}
			if acc == 42 {
				return fmt.Errorf("unreachable")
			}
			return nil
		})
		return reg
	}
	newMemo := func(dir string) *savanna.Memo {
		store, err := cas.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		cache, err := cas.OpenActionCache(dir+"/actions.json", store)
		if err != nil {
			b.Fatal(err)
		}
		return &savanna.Memo{Cache: cache, ComponentDigest: "sha256:bench-model"}
	}
	m := buildCampaign()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := &savanna.LocalEngine{Executor: newRegistry(), Workers: 4, Memo: newMemo(b.TempDir())}
			b.StartTimer()
			if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := &savanna.LocalEngine{Executor: newRegistry(), Workers: 4, Memo: newMemo(b.TempDir())}
		if _, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs); err != nil { // prime
			b.Fatal(err)
		}
		var cached int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, _, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
			if err != nil {
				b.Fatal(err)
			}
			cached = 0
			for _, r := range res {
				if r.Cached {
					cached++
				}
			}
			if cached != points {
				b.Fatalf("warm resume executed %d runs, want 0", points-cached)
			}
		}
		b.ReportMetric(float64(cached), "cached-runs")
	})
}

// BenchmarkIRFLoopSchedulers regenerates Figs. 6 and 7 at reduced scale and
// reports the utilisation gap and the throughput speedup.
func BenchmarkIRFLoopSchedulers(b *testing.B) {
	var res *experiments.IRFLoopResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunIRFLoopScheduling(benchIRFConfig(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Speedup, "speedup-x")
	b.ReportMetric(res.Dynamic.MeanUtilization*100, "dyn-util-%")
	b.ReportMetric(res.SetSync.MeanUtilization*100, "set-util-%")
}

// BenchmarkIRFLoopSingleAllocation isolates one allocation per discipline —
// the per-allocation cost behind Fig. 7.
func BenchmarkIRFLoopSingleAllocation(b *testing.B) {
	m, err := experiments.BuildIRFCampaign(200, 10, 60)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []savanna.Discipline{savanna.Dynamic, savanna.SetSynchronized} {
		b.Run(string(d), func(b *testing.B) {
			eng := &savanna.SimEngine{
				Durations: savanna.TruncatedLogNormalDurations(120, 1.45, 3200),
				Seed:      1,
			}
			var completed int
			for i := 0; i < b.N; i++ {
				out, err := eng.RunAllocation(m.Runs, 10, 3600, d, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				completed = len(out.Completed)
			}
			b.ReportMetric(float64(completed), "completed-runs")
		})
	}
}

// --- TBL-DEBT: reusability continuum --------------------------------------

// BenchmarkDebtContinuum regenerates the continuum table and reports the
// end-to-end reduction in human steps.
func BenchmarkDebtContinuum(b *testing.B) {
	var first, last int
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunDebtContinuum()
		if err != nil {
			b.Fatal(err)
		}
		first, last = pts[0].HumanSteps, pts[len(pts)-1].HumanSteps
	}
	b.ReportMetric(float64(first), "human-steps-blackbox")
	b.ReportMetric(float64(last), "human-steps-invested")
}

// --- helpers ---------------------------------------------------------------

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "-" + string(buf[i:])
}

func makeColumns(b *testing.B, dir string, files, rows int) []string {
	b.Helper()
	inputs := make([]string, files)
	cells := make([]string, rows)
	for r := range cells {
		cells[r] = "1"
	}
	for i := range inputs {
		inputs[i] = dir + "/" + benchName("col", i) + ".txt"
		if err := tabular.WriteColumn(inputs[i], cells); err != nil {
			b.Fatal(err)
		}
	}
	return inputs
}

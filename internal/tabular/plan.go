package tabular

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// PasteTask is one paste invocation inside a plan: sources → output.
type PasteTask struct {
	Output  string   `json:"output"`
	Sources []string `json:"sources"`
	// Phase is 0-based: tasks in phase p depend only on outputs of phases
	// < p (phase 0 reads original inputs).
	Phase int `json:"phase"`
}

// PastePlan is a multi-phase paste: the paper's "two-phase paste, where a
// series of sub-pastes were performed to reduce the number of files, then a
// final paste was done to merge the pasted subsets". For very large inputs
// the planner recurses, producing as many phases as the fan-in limit
// requires.
type PastePlan struct {
	Tasks  []PasteTask `json:"tasks"`
	Phases int         `json:"phases"`
	Final  string      `json:"final"`
}

// PlanPaste builds a paste plan over the input files with the given fan-in
// limit (the maximum files merged by a single paste — the filesystem
// bottleneck the paper's manual process works around by hand). The final
// output is written to finalPath; intermediates go to workDir.
func PlanPaste(inputs []string, finalPath, workDir string, fanIn int) (PastePlan, error) {
	if len(inputs) == 0 {
		return PastePlan{}, fmt.Errorf("tabular: no inputs to paste")
	}
	if fanIn < 2 {
		return PastePlan{}, fmt.Errorf("tabular: fan-in must be ≥ 2, got %d", fanIn)
	}
	plan := PastePlan{Final: finalPath}
	current := append([]string(nil), inputs...)
	phase := 0
	for len(current) > fanIn {
		var next []string
		for i := 0; i < len(current); i += fanIn {
			end := i + fanIn
			if end > len(current) {
				end = len(current)
			}
			out := filepath.Join(workDir, fmt.Sprintf("phase%d_part%04d.tsv", phase, len(next)))
			plan.Tasks = append(plan.Tasks, PasteTask{
				Output: out, Sources: append([]string(nil), current[i:end]...), Phase: phase,
			})
			next = append(next, out)
		}
		current = next
		phase++
	}
	plan.Tasks = append(plan.Tasks, PasteTask{Output: finalPath, Sources: current, Phase: phase})
	plan.Phases = phase + 1
	return plan, nil
}

// ExecOptions configures plan execution.
type ExecOptions struct {
	Options
	// Parallelism bounds concurrent paste tasks across the whole plan (≥ 1).
	// The paper's point: "careful planning is required to divide the pasting
	// into parallelizable subjobs" — the executor is that planning, encoded.
	Parallelism int
	// KeepIntermediates leaves phase outputs on disk for inspection (on
	// the failure path too). Cache-satisfied intermediates are never
	// materialized, so there is nothing to keep for them.
	KeepIntermediates bool
	// Cache enables memoized execution: each task's recipe — (operation,
	// options, ordered input digests) — is looked up in the action cache,
	// and hits skip the paste entirely, materializing the stored output by
	// hard-link/copy only where a downstream task (or the final output)
	// actually needs the bytes. A warm re-run with unchanged inputs
	// executes zero paste tasks.
	Cache *cas.ActionCache
	// Stats, when non-nil, receives the executed/cached task breakdown.
	Stats *ExecStats
	// Tracer, when non-nil, records one span per task (named "paste.task",
	// child of ctx's span — so a campaign → run context nests the tasks
	// under it) stamped with output, phase, cached/rows outcome.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives the paste instruments: executed/
	// cached/failed task counters and exec + queue-wait histograms. Both
	// telemetry fields left nil cost the executor only nil checks.
	Metrics *telemetry.Registry
	// Events, when non-nil, journals each task's lifecycle (task.start /
	// task.done / task.cached / task.failed) with the task's span ID, so
	// the campaign monitor and the flamegraph tell one story. A nil log
	// costs one nil check per task transition.
	Events *eventlog.Log

	// testTaskStart, when set (tests only), runs just before task i's paste.
	testTaskStart func(i int)
}

// ExecStats reports what an Execute call actually did, for observability and
// for asserting cache invalidation behaviour. Do not read while Execute is
// in flight.
type ExecStats struct {
	mu sync.Mutex
	// Executed lists outputs of tasks that ran their paste.
	Executed []string
	// Cached lists outputs of tasks satisfied from the action cache.
	Cached []string
}

func (s *ExecStats) note(output string, cached bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if cached {
		s.Cached = append(s.Cached, output)
	} else {
		s.Executed = append(s.Executed, output)
	}
	s.mu.Unlock()
}

// pasteRecipeKind versions the paste operation in the action cache; bump it
// whenever Paste's output semantics change.
const pasteRecipeKind = "tabular/paste@v1"

// taskRecipe builds the action-cache recipe for one task given its source
// digests.
func taskRecipe(opts Options, srcDigests []cas.Digest) cas.Recipe {
	return cas.Recipe{
		Kind: pasteRecipeKind,
		Params: map[string]string{
			"delim":  opts.delimiter(),
			"ragged": strconv.FormatBool(opts.AllowRagged),
		},
		Inputs: srcDigests,
	}
}

// execTelemetry carries the pre-resolved instruments for one Execute call so
// the worker loop never touches the registry's lock. It is nil when both
// telemetry fields are unset — the off path.
type execTelemetry struct {
	tracer     *telemetry.Tracer
	execHist   *telemetry.Histogram // paste.task_exec_seconds{cached="false"}
	cachedHist *telemetry.Histogram // paste.task_exec_seconds{cached="true"}
	waitHist   *telemetry.Histogram // paste.task_queue_wait_seconds
	executed   *telemetry.Counter
	cached     *telemetry.Counter
	failed     *telemetry.Counter
	// readyAt[i] is when task i entered the ready queue; written before the
	// channel send, read after the receive (happens-before via the channel).
	readyAt []time.Time
}

func newExecTelemetry(opts ExecOptions, n int) *execTelemetry {
	if opts.Tracer == nil && opts.Metrics == nil {
		return nil
	}
	return &execTelemetry{
		tracer:     opts.Tracer,
		execHist:   opts.Metrics.Histogram("paste.task_exec_seconds", nil, "cached", "false"),
		cachedHist: opts.Metrics.Histogram("paste.task_exec_seconds", nil, "cached", "true"),
		waitHist:   opts.Metrics.Histogram("paste.task_queue_wait_seconds", nil),
		executed:   opts.Metrics.Counter("paste.tasks_executed_total"),
		cached:     opts.Metrics.Counter("paste.tasks_cached_total"),
		failed:     opts.Metrics.Counter("paste.tasks_failed_total"),
		readyAt:    make([]time.Time, n),
	}
}

// noteReady stamps task i's enqueue time (call before sending i to ready).
func (t *execTelemetry) noteReady(i int) {
	if t != nil {
		t.readyAt[i] = t.tracer.Now()
	}
}

// Intermediates returns the outputs of every non-final task, in plan order —
// the files Execute is responsible for cleaning up. Derived from the plan
// itself so cleanup never depends on how far execution got.
func (p PastePlan) Intermediates() []string {
	var out []string
	for _, t := range p.Tasks {
		if t.Output != p.Final {
			out = append(out, t.Output)
		}
	}
	return out
}

// Execute runs the plan as a dependency DAG on a global pool of Parallelism
// workers: each task is released the moment the tasks producing *its own*
// sources have completed, so a later-phase merge starts while unrelated
// earlier-phase pastes are still running — no per-phase barrier. It returns
// the row count of the final output, taken from the final task's own paste
// (no extra counting pass over the largest file).
//
// Cancelling ctx stops further task launches promptly: queued tasks are
// drained unrun, in-flight pastes finish, and Execute returns ctx's error
// (joined with any task failures) after cleaning up intermediates.
//
// With opts.Cache set, execution is memoized per task: unchanged recipes are
// skipped and their outputs materialized from the content-addressed store
// only where actually consumed, so a fully-warm re-run executes zero pastes
// and touches only the final artifact.
//
// On failure, every error is aggregated (errors.Join) — concurrent tasks
// that fail independently are all reported — and intermediates are removed
// unless KeepIntermediates is set. Tasks downstream of a failed task are
// never started.
func (p PastePlan) Execute(ctx context.Context, opts ExecOptions) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	n := len(p.Tasks)
	if n == 0 {
		return 0, fmt.Errorf("tabular: empty paste plan")
	}

	// Dependency graph: remaining[i] counts task i's sources produced by
	// other tasks in the plan; dependents[j] lists the tasks consuming task
	// j's output.
	producer := make(map[string]int, n)
	for i, t := range p.Tasks {
		producer[t.Output] = i
	}
	remaining := make([]int, n)
	dependents := make([][]int, n)
	for i, t := range p.Tasks {
		for _, s := range t.Sources {
			if j, ok := producer[s]; ok && j != i {
				remaining[i]++
				dependents[j] = append(dependents[j], i)
			}
		}
	}

	tel := newExecTelemetry(opts, n)

	ready := make(chan int, n)
	enqueued := 0
	for i := range p.Tasks {
		if remaining[i] == 0 {
			tel.noteReady(i)
			ready <- i
			enqueued++
		}
	}
	if enqueued == 0 {
		return 0, fmt.Errorf("tabular: paste plan has no runnable task (dependency cycle)")
	}

	var (
		mu        sync.Mutex
		errs      []error
		canceled  bool
		finalRows int
		finalSeen bool
		completed int
	)
	// digests[i] is task i's output digest (cache mode), written under mu
	// when i completes and read by dependents afterwards. materialized[i]
	// tracks whether that output exists as a file; cached outputs are
	// materialized lazily, under matMu[i], by the first consumer that needs
	// the bytes.
	digests := make([]cas.Digest, n)
	materialized := make([]bool, n)
	matMu := make([]sync.Mutex, n)

	ensureMaterialized := func(j int) error {
		matMu[j].Lock()
		defer matMu[j].Unlock()
		if materialized[j] {
			return nil
		}
		if err := opts.Cache.Store().Materialize(digests[j], p.Tasks[j].Output); err != nil {
			return err
		}
		materialized[j] = true
		return nil
	}

	// runTask performs task i (paste, or cache hit), returning its row
	// count, output digest (cache mode) and whether it was cache-satisfied.
	runTask := func(i int) (rows int, out cas.Digest, cached bool, err error) {
		task := p.Tasks[i]
		if opts.Cache == nil {
			if opts.testTaskStart != nil {
				opts.testTaskStart(i)
			}
			rows, err = PasteFiles(task.Output, opts.Options, task.Sources...)
			return rows, "", false, err
		}
		srcDigests := make([]cas.Digest, len(task.Sources))
		for k, s := range task.Sources {
			if j, ok := producer[s]; ok && j != i {
				srcDigests[k] = digests[j] // producer completed before i was released
			} else {
				d, herr := opts.Cache.HashFileCached(s)
				if herr != nil {
					return 0, "", false, herr
				}
				srcDigests[k] = d
			}
		}
		rd := taskRecipe(opts.Options, srcDigests).Digest()
		if res, ok := opts.Cache.Get(rd); ok {
			d := res.Outputs["out"]
			rows = -1
			if v, perr := strconv.Atoi(res.Meta["rows"]); perr == nil {
				rows = v
			}
			if task.Output == p.Final {
				// The final artifact must exist on disk either way.
				matMu[i].Lock()
				merr := opts.Cache.Store().Materialize(d, task.Output)
				if merr == nil {
					materialized[i] = true
				}
				matMu[i].Unlock()
				if merr != nil {
					return 0, "", false, merr
				}
				if rows < 0 { // entry predating row metadata
					if rows, err = CountRows(task.Output); err != nil {
						return 0, "", false, err
					}
				}
			}
			return rows, d, true, nil
		}
		// Miss: sources satisfied from cache upstream must exist as files
		// before the paste reads them.
		for _, s := range task.Sources {
			if j, ok := producer[s]; ok && j != i {
				if merr := ensureMaterialized(j); merr != nil {
					return 0, "", false, merr
				}
			}
		}
		if opts.testTaskStart != nil {
			opts.testTaskStart(i)
		}
		// Remove (never truncate) any previous output: it may be a hard
		// link sharing the store object's inode.
		os.Remove(task.Output)
		rows, err = PasteFiles(task.Output, opts.Options, task.Sources...)
		if err != nil {
			return 0, "", false, err
		}
		d, _, perr := opts.Cache.Store().PutFile(task.Output)
		if perr != nil {
			return 0, "", false, perr
		}
		if perr := opts.Cache.Put(rd, cas.ActionResult{
			Outputs: map[string]cas.Digest{"out": d},
			Meta:    map[string]string{"rows": strconv.Itoa(rows)},
		}); perr != nil {
			return 0, "", false, perr
		}
		matMu[i].Lock()
		materialized[i] = true
		matMu[i].Unlock()
		return rows, d, false, nil
	}

	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range ready {
				var (
					rows   int
					out    cas.Digest
					cached bool
					err    error
				)
				launched := ctx.Err() == nil
				var span *telemetry.Span
				var execStart time.Time
				if tel != nil {
					execStart = tel.tracer.Now()
					tel.waitHist.Observe(execStart.Sub(tel.readyAt[i]).Seconds())
					if launched {
						_, span = tel.tracer.Start(ctx, "paste.task",
							telemetry.String("output", p.Tasks[i].Output),
							telemetry.Int("phase", p.Tasks[i].Phase),
							telemetry.Int("sources", len(p.Tasks[i].Sources)))
					}
				}
				if launched {
					opts.Events.Append(eventlog.Info, eventlog.TaskStart, "", span.ID(),
						telemetry.String("task", p.Tasks[i].Output),
						telemetry.Int("phase", p.Tasks[i].Phase))
					rows, out, cached, err = runTask(i)
				}
				if tel != nil && launched {
					elapsed := tel.tracer.Now().Sub(execStart).Seconds()
					switch {
					case err != nil:
						tel.failed.Inc()
						span.End(telemetry.Bool("error", true))
					case cached:
						tel.cached.Inc()
						tel.cachedHist.Observe(elapsed)
						span.End(telemetry.Bool("cached", true), telemetry.Int("rows", rows))
					default:
						tel.executed.Inc()
						tel.execHist.Observe(elapsed)
						span.End(telemetry.Bool("cached", false), telemetry.Int("rows", rows))
					}
				}
				task := p.Tasks[i]
				if launched {
					switch {
					case err != nil:
						opts.Events.Append(eventlog.Error, eventlog.TaskFailed, err.Error(), span.ID(),
							telemetry.String("task", task.Output))
					case cached:
						opts.Events.Append(eventlog.Info, eventlog.TaskCached, "", span.ID(),
							telemetry.String("task", task.Output))
					default:
						opts.Events.Append(eventlog.Info, eventlog.TaskDone, "", span.ID(),
							telemetry.String("task", task.Output), telemetry.Int("rows", rows))
					}
				}

				mu.Lock()
				completed++
				switch {
				case !launched:
					// Cancelled before launch: record ctx's error once;
					// dependents are simply never released.
					if !canceled {
						canceled = true
						errs = append(errs, fmt.Errorf("tabular: paste plan canceled: %w", ctx.Err()))
					}
				case err != nil:
					errs = append(errs, fmt.Errorf("tabular: phase %d task %s: %w", task.Phase, task.Output, err))
				default:
					digests[i] = out
					opts.Stats.note(task.Output, cached)
					if task.Output == p.Final {
						finalRows, finalSeen = rows, true
					}
					for _, j := range dependents[i] {
						remaining[j]--
						if remaining[j] == 0 {
							tel.noteReady(j)
							ready <- j
							enqueued++
						}
					}
				}
				// Nothing queued and nothing in flight ⇒ no task can ever
				// become ready again (new work is only enqueued above, by a
				// completing task): drain the workers. Dependents of failed
				// tasks are simply never released.
				if completed == enqueued {
					close(ready)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(errs) == 0 && completed < n {
		errs = append(errs, fmt.Errorf("tabular: paste plan stalled after %d of %d tasks (dependency cycle)", completed, n))
	}
	err := errors.Join(errs...)
	if !opts.KeepIntermediates {
		// Cleanup is derived from the plan, not from launch bookkeeping, so
		// it covers the failure path (partial and skipped outputs included);
		// removal of never-written files is a harmless ENOENT. Removing a
		// hard-linked intermediate only unlinks this path — the store's
		// object survives for the next warm run.
		for _, path := range p.Intermediates() {
			os.Remove(path)
		}
		if err != nil {
			// A failed plan must not leave a partial (or stale) final file
			// behind to be mistaken for a successful paste.
			os.Remove(p.Final)
		}
	}
	if opts.Cache != nil {
		// Persist file-stat digest memos even when every task hit (no Put
		// ran): the next warm run then skips re-reading unchanged inputs.
		if serr := opts.Cache.Save(); serr != nil && err == nil {
			err = serr
		}
	}
	if err != nil {
		return 0, err
	}
	if !finalSeen {
		// Hand-built plan whose final file is produced outside the task
		// list; fall back to counting.
		return CountRows(p.Final)
	}
	return finalRows, nil
}

// MaxConcurrentFiles returns the peak number of files a single task in the
// plan touches simultaneously (sources + 1 output) — the quantity the fan-in
// limit exists to bound.
func (p PastePlan) MaxConcurrentFiles() int {
	max := 0
	for _, t := range p.Tasks {
		if n := len(t.Sources) + 1; n > max {
			max = n
		}
	}
	return max
}

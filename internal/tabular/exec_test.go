package tabular

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// phaseTasks returns the tasks of one phase, in plan order.
func phaseTasks(p PastePlan, phase int) []PasteTask {
	var out []PasteTask
	for _, t := range p.Tasks {
		if t.Phase == phase {
			out = append(out, t)
		}
	}
	return out
}

// executeBarrier is the reference executor the DAG scheduler replaced: run
// the plan phase by phase, serially, with a full barrier between phases.
// Tests use it as the ground truth the DAG executor must match byte for
// byte; the skewed-size benchmark uses it as the baseline to beat.
func executeBarrier(p PastePlan, opts ExecOptions) (int, error) {
	rows := 0
	for phase := 0; phase < p.Phases; phase++ {
		for _, task := range phaseTasks(p, phase) {
			n, err := PasteFiles(task.Output, opts.Options, task.Sources...)
			if err != nil {
				return 0, fmt.Errorf("tabular: phase %d task %s: %w", task.Phase, task.Output, err)
			}
			if task.Output == p.Final {
				rows = n
			}
		}
	}
	if !opts.KeepIntermediates {
		for _, path := range p.Intermediates() {
			os.Remove(path)
		}
	}
	return rows, nil
}

// executeBarrierParallel reproduces the seed executor exactly: tasks run on
// up to Parallelism goroutines *within* a phase, with a full barrier between
// phases. It is the baseline BenchmarkExecutorSkewed measures the DAG
// scheduler against.
func executeBarrierParallel(p PastePlan, opts ExecOptions) (int, error) {
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	for phase := 0; phase < p.Phases; phase++ {
		tasks := phaseTasks(p, phase)
		sem := make(chan struct{}, par)
		errCh := make(chan error, len(tasks))
		var wg sync.WaitGroup
		for _, task := range tasks {
			task := task
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				if _, err := PasteFiles(task.Output, opts.Options, task.Sources...); err != nil {
					errCh <- err
				}
			}()
		}
		wg.Wait()
		close(errCh)
		if err := <-errCh; err != nil {
			return 0, err
		}
	}
	if !opts.KeepIntermediates {
		for _, path := range p.Intermediates() {
			os.Remove(path)
		}
	}
	return CountRows(p.Final)
}

func writeTestColumns(t *testing.T, dir string, files, rows int) []string {
	t.Helper()
	inputs := make([]string, files)
	for i := range inputs {
		cells := make([]string, rows)
		for r := range cells {
			cells[r] = fmt.Sprintf("f%d_r%d", i, r)
		}
		inputs[i] = filepath.Join(dir, fmt.Sprintf("in%03d.txt", i))
		if err := WriteColumn(inputs[i], cells); err != nil {
			t.Fatal(err)
		}
	}
	return inputs
}

// TestExecuteDAGMatchesSerialByteForByte is the determinism contract: for a
// multi-phase plan, the DAG executor's final output must be byte-identical
// to the serial phase-barrier execution, at any parallelism, every run.
func TestExecuteDAGMatchesSerialByteForByte(t *testing.T) {
	dir := t.TempDir()
	inputs := writeTestColumns(t, dir, 37, 23) // odd sizes → ragged tree shape

	ref := filepath.Join(dir, "ref.tsv")
	refPlan, err := PlanPaste(inputs, ref, filepath.Join(dir, "refwork"), 4)
	if err != nil {
		t.Fatal(err)
	}
	refRows, err := executeBarrier(refPlan, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	for _, par := range []int{1, 2, 8} {
		for rep := 0; rep < 3; rep++ {
			final := filepath.Join(dir, fmt.Sprintf("dag_p%d_r%d.tsv", par, rep))
			plan, err := PlanPaste(inputs, final, filepath.Join(dir, fmt.Sprintf("work_p%d_r%d", par, rep)), 4)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := plan.Execute(context.Background(), ExecOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if rows != refRows {
				t.Fatalf("par=%d rep=%d: rows = %d, want %d", par, rep, rows, refRows)
			}
			got, err := os.ReadFile(final)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("par=%d rep=%d: DAG output differs from serial execution", par, rep)
			}
		}
	}
}

// TestExecuteReturnsFinalTaskRowCount checks the row count comes from the
// final task's paste itself (no re-scan): it must be right even when the
// final file is large and the plan deep.
func TestExecuteReturnsFinalTaskRowCount(t *testing.T) {
	dir := t.TempDir()
	const rows = 57
	inputs := writeTestColumns(t, dir, 40, rows)
	plan, err := PlanPaste(inputs, filepath.Join(dir, "f.tsv"), filepath.Join(dir, "w"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Phases < 3 {
		t.Fatalf("want a deep plan, got %d phases", plan.Phases)
	}
	got, err := plan.Execute(context.Background(), ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != rows {
		t.Fatalf("rows = %d, want %d", got, rows)
	}
}

// TestExecuteFailureCleansIntermediates: a mid-plan failure must remove
// every already-written intermediate and the (never-valid) final output.
func TestExecuteFailureCleansIntermediates(t *testing.T) {
	dir := t.TempDir()
	inputs := writeTestColumns(t, dir, 12, 5)
	// Sabotage one phase-0 task's input so later tasks in the same phase
	// still succeed and write intermediates before the failure propagates.
	if err := os.Remove(inputs[5]); err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "work")
	final := filepath.Join(dir, "final.tsv")
	plan, err := PlanPaste(inputs, final, work, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), ExecOptions{Parallelism: 4}); err == nil {
		t.Fatal("missing input did not fail execution")
	}
	if entries, _ := os.ReadDir(work); len(entries) != 0 {
		t.Fatalf("failure left %d intermediates behind", len(entries))
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("failure left final output behind (stat err: %v)", err)
	}
}

// TestExecuteFailureKeepsIntermediatesWhenAsked: KeepIntermediates applies
// to the failure path too — successful siblings' outputs stay inspectable.
func TestExecuteFailureKeepsIntermediatesWhenAsked(t *testing.T) {
	dir := t.TempDir()
	inputs := writeTestColumns(t, dir, 12, 5)
	if err := os.Remove(inputs[5]); err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "work")
	plan, err := PlanPaste(inputs, filepath.Join(dir, "final.tsv"), work, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), ExecOptions{Parallelism: 1, KeepIntermediates: true}); err == nil {
		t.Fatal("missing input did not fail execution")
	}
	entries, _ := os.ReadDir(work)
	if len(entries) == 0 {
		t.Fatal("KeepIntermediates removed intermediates on failure")
	}
}

// TestExecuteAggregatesIndependentErrors: two independently failing tasks
// must both be reported (errors.Join), not just the first off the channel.
func TestExecuteAggregatesIndependentErrors(t *testing.T) {
	dir := t.TempDir()
	inputs := writeTestColumns(t, dir, 8, 3)
	if err := os.Remove(inputs[0]); err != nil { // kills phase-0 task 0
		t.Fatal(err)
	}
	if err := os.Remove(inputs[7]); err != nil { // kills phase-0 task 1
		t.Fatal(err)
	}
	plan, err := PlanPaste(inputs, filepath.Join(dir, "f.tsv"), filepath.Join(dir, "w"), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Execute(context.Background(), ExecOptions{Parallelism: 1})
	if err == nil {
		t.Fatal("missing inputs did not fail execution")
	}
	msg := err.Error()
	if !strings.Contains(msg, "phase0_part0000") || !strings.Contains(msg, "phase0_part0001") {
		t.Fatalf("error lost one of two independent failures: %v", err)
	}
}

// TestExecuteDownstreamOfFailureNeverRuns: the final merge depends on the
// failed task's output, so it must never start (its output must not exist
// even with KeepIntermediates set).
func TestExecuteDownstreamOfFailureNeverRuns(t *testing.T) {
	dir := t.TempDir()
	inputs := writeTestColumns(t, dir, 8, 3)
	if err := os.Remove(inputs[0]); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "f.tsv")
	plan, err := PlanPaste(inputs, final, filepath.Join(dir, "w"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), ExecOptions{Parallelism: 4, KeepIntermediates: true}); err == nil {
		t.Fatal("missing input did not fail execution")
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("final task ran despite upstream failure (stat err: %v)", err)
	}
}

// TestExecuteRejectsCyclicPlan: a hand-built plan whose tasks feed each
// other must error out rather than deadlock.
func TestExecuteRejectsCyclicPlan(t *testing.T) {
	dir := t.TempDir()
	plan := PastePlan{
		Tasks: []PasteTask{
			{Output: filepath.Join(dir, "a"), Sources: []string{filepath.Join(dir, "b")}},
			{Output: filepath.Join(dir, "b"), Sources: []string{filepath.Join(dir, "a")}},
		},
		Phases: 1,
		Final:  filepath.Join(dir, "b"),
	}
	if _, err := plan.Execute(context.Background(), ExecOptions{Parallelism: 2}); err == nil {
		t.Fatal("cyclic plan did not error")
	}
}

// TestExecuteRaggedPlanEndToEnd: AllowRagged flows through the executor to
// every task; columns from shorter files pad with empty cells.
func TestExecuteRaggedPlanEndToEnd(t *testing.T) {
	dir := t.TempDir()
	inputs := make([]string, 6)
	for i := range inputs {
		rows := 2 + i // 2..7 rows
		cells := make([]string, rows)
		for r := range cells {
			cells[r] = fmt.Sprintf("c%d_%d", i, r)
		}
		inputs[i] = filepath.Join(dir, fmt.Sprintf("in%d.txt", i))
		if err := WriteColumn(inputs[i], cells); err != nil {
			t.Fatal(err)
		}
	}
	final := filepath.Join(dir, "f.tsv")
	plan, err := PlanPaste(inputs, final, filepath.Join(dir, "w"), 3)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(context.Background(), ExecOptions{
		Options:     Options{AllowRagged: true},
		Parallelism: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 7 {
		t.Fatalf("rows = %d, want 7 (longest column)", rows)
	}
	got, err := readAll(final, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 || len(got[0]) != 6 {
		t.Fatalf("shape %dx%d, want 7 rows × 6 cols while all live", len(got), len(got[0]))
	}
	// Once a source is exhausted it contributes a single empty cell (seed
	// semantics): the last row keeps only the longest column's value.
	last := got[6]
	if last[0] != "" || last[len(last)-1] != "c5_6" {
		t.Fatalf("ragged padding wrong: last row %v", last)
	}
	// Strict mode must refuse the same inputs.
	plan2, err := PlanPaste(inputs, filepath.Join(dir, "f2.tsv"), filepath.Join(dir, "w2"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan2.Execute(context.Background(), ExecOptions{Parallelism: 3}); err == nil {
		t.Fatal("strict mode accepted ragged inputs")
	}
}

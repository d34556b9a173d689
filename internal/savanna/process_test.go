package savanna

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
)

func TestSubstitute(t *testing.T) {
	run := cheetah.Run{
		ID: "g/s/run-00001", Group: "g", Sweep: "s",
		Params: map[string]string{"alpha": "0.5", "mode": "fast"},
	}
	got, err := Substitute("--alpha={alpha} --mode={mode} --out={run_id}.dat", run)
	if err != nil {
		t.Fatal(err)
	}
	if got != "--alpha=0.5 --mode=fast --out=g/s/run-00001.dat" {
		t.Fatalf("substituted: %q", got)
	}
	if _, err := Substitute("--beta={beta}", run); err == nil {
		t.Fatal("unresolved placeholder accepted")
	}
	plain, err := Substitute("no placeholders", run)
	if err != nil || plain != "no placeholders" {
		t.Fatalf("plain: %q, %v", plain, err)
	}
}

func TestProcessExecutorRunsCommands(t *testing.T) {
	root := t.TempDir()
	exe := &ProcessExecutor{
		Command:  []string{"sh", "-c", "echo param={x} >&1; echo side >&2"},
		WorkRoot: root,
		Timeout:  10 * time.Second,
	}
	run := cheetah.Run{ID: "g/s/run-00000", Group: "g", Sweep: "s",
		Params: map[string]string{"x": "41"}}
	if err := exe.Execute(run); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(root, "g/s/run-00000/stdout.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "param=41") {
		t.Fatalf("stdout: %q", out)
	}
	errLog, err := os.ReadFile(filepath.Join(root, "g/s/run-00000/stderr.log"))
	if err != nil || !strings.Contains(string(errLog), "side") {
		t.Fatalf("stderr: %q, %v", errLog, err)
	}
}

func TestProcessExecutorExportsSweepEnv(t *testing.T) {
	root := t.TempDir()
	exe := &ProcessExecutor{
		Command:  []string{"sh", "-c", "echo $SWEEP_FEATURE $RUN_ID"},
		WorkRoot: root,
	}
	run := cheetah.Run{ID: "g/s/run-00002", Params: map[string]string{"feature": "f7"}}
	if err := exe.Execute(run); err != nil {
		t.Fatal(err)
	}
	out, _ := os.ReadFile(filepath.Join(root, "g/s/run-00002/stdout.log"))
	if !strings.Contains(string(out), "f7 g/s/run-00002") {
		t.Fatalf("env not exported: %q", out)
	}
}

// TestProcessExecutorWritesParams: with WorkRoot set, the command finds its
// run's params.json in its working directory, byte-equal to the manifest's
// encoding of the run's parameters; a second attempt of the run rewrites it
// whole. With WorkRoot empty nothing is written where the command runs.
func TestProcessExecutorWritesParams(t *testing.T) {
	m, err := cheetah.BuildManifest(cheetah.Campaign{Name: "c", App: "app", Groups: []cheetah.SweepGroup{{
		Name: "g", Nodes: 1, WalltimeMinutes: 1,
		Sweeps: []cheetah.Sweep{{Name: "s", Parameters: []cheetah.Parameter{
			{Name: "b", Values: []string{"<&>"}},
			{Name: "a", Values: []string{"1", "2"}},
		}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	run := m.Runs[1]
	want, err := json.MarshalIndent(run.Params, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	exe := &ProcessExecutor{Command: []string{"sh", "-c", "cp params.json got.json"}, WorkRoot: root}
	runDir := filepath.Join(root, run.ID)
	for attempt := 1; attempt <= 2; attempt++ {
		if err := exe.Execute(run); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if got, err := os.ReadFile(filepath.Join(runDir, "got.json")); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("attempt %d: the command read %q (%v), want %q", attempt, got, err, want)
		}
		// A longer stale file: the next attempt must truncate it.
		if err := os.WriteFile(filepath.Join(runDir, "params.json"), bytes.Repeat([]byte{'#'}, 2*len(want)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	exe = &ProcessExecutor{Command: []string{"sh", "-c", "test ! -e params.json"}}
	if err := exe.Execute(run); err != nil {
		t.Fatalf("without WorkRoot: %v", err)
	}
	if _, err := os.Stat("params.json"); !os.IsNotExist(err) {
		t.Fatalf("without WorkRoot a params.json appeared in the current directory (stat err = %v)", err)
	}
}

func TestProcessExecutorFailurePropagates(t *testing.T) {
	exe := &ProcessExecutor{Command: []string{"sh", "-c", "exit 3"}}
	if err := exe.Execute(cheetah.Run{ID: "r"}); err == nil {
		t.Fatal("non-zero exit accepted")
	}
	empty := &ProcessExecutor{}
	if err := empty.Execute(cheetah.Run{ID: "r"}); err == nil {
		t.Fatal("empty command accepted")
	}
}

func TestProcessExecutorTimeout(t *testing.T) {
	exe := &ProcessExecutor{
		Command: []string{"sh", "-c", "sleep 5"},
		Timeout: 100 * time.Millisecond,
	}
	start := time.Now()
	err := exe.Execute(cheetah.Run{ID: "slow"})
	if err == nil {
		t.Fatal("timeout not enforced")
	}
	if !strings.Contains(err.Error(), "walltime") {
		t.Fatalf("error: %v", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("timeout enforcement too slow")
	}
}

func TestProcessExecutorThroughLocalEngine(t *testing.T) {
	// End-to-end: a campaign of shell commands through the dynamic engine.
	root := t.TempDir()
	campaign := testCampaign(6)
	m, _ := cheetah.BuildManifest(campaign)
	exe := &ProcessExecutor{
		Command:  []string{"sh", "-c", "test {i} -ne 3"}, // run 3 fails
		WorkRoot: root,
	}
	eng := &LocalEngine{Executor: exe, Workers: 3}
	results, _, err := eng.RunCampaign(context.Background(), campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for _, r := range results {
		if r.Status == provenance.StatusFailed {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed = %d, want exactly the planted failure", failed)
	}
}

// TestProcessExecutorContextKillsSleepingChild: cancelling the attempt's
// context kills the subprocess (and its process group) promptly — a wedged
// child must not hold its worker past the deadline.
func TestProcessExecutorContextKillsSleepingChild(t *testing.T) {
	dir := t.TempDir()
	marker := filepath.Join(dir, "still-alive")
	exe := &ProcessExecutor{
		// The child forks a grandchild that would outlive a naive kill and
		// prove the group signal works by NOT writing its marker.
		Command: []string{"sh", "-c", "(sleep 30; touch " + marker + ") & sleep 30"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := exe.ExecuteContext(ctx, cheetah.Run{ID: "wedged"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("kill took %s — child not killed on cancel", elapsed)
	}
	if resilience.Classify(err) != resilience.ClassDeadline {
		t.Fatalf("deadline kill classified %q (%v)", resilience.Classify(err), err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, statErr := os.Stat(marker); statErr == nil {
		t.Fatal("grandchild survived the process-group kill")
	}
}

// TestProcessExecutorClassifiesExits: a clean non-zero exit is permanent
// (the application rejected its parameters); a bad template likewise.
func TestProcessExecutorClassifiesExits(t *testing.T) {
	exit3 := &ProcessExecutor{Command: []string{"sh", "-c", "exit 3"}}
	if err := exit3.Execute(cheetah.Run{ID: "r"}); resilience.Classify(err) != resilience.ClassPermanent {
		t.Fatalf("non-zero exit classified %q", resilience.Classify(err))
	}
	bad := &ProcessExecutor{Command: []string{"echo", "{missing}"}}
	if err := bad.Execute(cheetah.Run{ID: "r"}); resilience.Classify(err) != resilience.ClassPermanent {
		t.Fatalf("bad template classified %q", resilience.Classify(err))
	}
}

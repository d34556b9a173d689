package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cheetah"
	"fairflow/internal/remote"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
)

// newCampaign materialises a four-run campaign (ms = 1..4) and returns its
// directory.
func newCampaign(t *testing.T) string {
	t.Helper()
	m, err := cheetah.BuildManifest(cheetah.Campaign{
		Name: "demo", App: "sleep", Account: "TEST",
		Groups: []cheetah.SweepGroup{{Name: "g", Nodes: 2, WalltimeMinutes: 5,
			Sweeps: []cheetah.Sweep{{Name: "s", Parameters: []cheetah.Parameter{
				{Name: "ms", Layer: cheetah.Application, Values: []string{"1", "2", "3", "4"}},
			}}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// savannaRun runs the command and returns its exit status and output.
func savannaRun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(append([]string{"run"}, args...), &out, &errOut)
	return code, out.String(), errOut.String()
}

func readJournal(t *testing.T, dir string) []resilience.AttemptRecord {
	t.Helper()
	recs, err := resilience.ReadJournalFile(filepath.Join(dir, "attempts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// wantOneSuccessPerRun checks that the journal ends every run of the
// campaign exactly once, with a success.
func wantOneSuccessPerRun(t *testing.T, dir string) {
	t.Helper()
	m, err := cheetah.LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	terminal := map[string]int{}
	for _, r := range readJournal(t, dir) {
		switch r.Event {
		case resilience.AttemptSuccess, resilience.AttemptCached, resilience.AttemptFailure, resilience.AttemptQuarantined:
			if r.Event != resilience.AttemptSuccess {
				t.Errorf("run %s: journal holds %q", r.Run, r.Event)
			}
			terminal[r.Run]++
		}
	}
	for _, r := range m.Runs {
		if terminal[r.ID] != 1 {
			t.Errorf("run %s: %d terminal journal record(s), want 1", r.ID, terminal[r.ID])
		}
	}
	if len(terminal) != len(m.Runs) {
		t.Errorf("terminal records for %d run(s), campaign has %d", len(terminal), len(m.Runs))
	}
}

func TestProbeReportsOwedRunsAndRestoresRunFiles(t *testing.T) {
	dir := newCampaign(t)
	params := filepath.Join(dir, "g", "s", "run-00001", "params.json")
	if err := os.Remove(params); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := savannaRun(t, "-campaign", dir)
	if code != 3 {
		t.Fatalf("probe exit = %d, want 3\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "1 run file(s) re-created from campaign.json") {
		t.Errorf("stderr lacks the restore count:\n%s", stderr)
	}
	if !strings.Contains(stdout, "4 of 4 run(s) remaining") {
		t.Errorf("stdout lacks the resume position:\n%s", stdout)
	}
	if _, err := os.Stat(params); err != nil {
		t.Errorf("params.json not restored: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "attempts.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the probe created a journal (stat: %v)", err)
	}
}

func TestLocalRunCompletesAndRerunDispatchesNothing(t *testing.T) {
	dir := newCampaign(t)
	if code, stdout, stderr := savannaRun(t, "-campaign", dir, "--", "sh", "-c", "true"); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, stdout, stderr)
	}
	wantOneSuccessPerRun(t, dir)
	journal := filepath.Join(dir, "attempts.jsonl")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := savannaRun(t, "-campaign", dir, "--", "sh", "-c", "true")
	if code != 0 {
		t.Fatalf("second exit = %d, want 0\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "0 of 4 run(s) remaining") || !strings.Contains(stdout, "0/0 complete") {
		t.Errorf("second invocation dispatched runs:\n%s", stdout)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("second invocation changed attempts.jsonl:\nbefore %q\nafter  %q", before, after)
	}
	if code, stdout, _ := savannaRun(t, "-campaign", dir); code != 0 {
		t.Errorf("probe of a complete campaign exit = %d, want 0\n%s", code, stdout)
	}
}

func TestFailingRunsExit3AndRerunFinishes(t *testing.T) {
	dir := newCampaign(t)
	code, stdout, stderr := savannaRun(t, "-campaign", dir, "-base-delay", "0", "--", "sh", "-c", "test {ms} -ne 3")
	if code != 3 {
		t.Fatalf("exit = %d, want 3\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "3/4 complete") {
		t.Errorf("want 3 of 4 complete:\n%s", stdout)
	}
	code, stdout, stderr = savannaRun(t, "-campaign", dir, "--", "sh", "-c", "true")
	if code != 0 {
		t.Fatalf("re-run exit = %d, want 0\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "1 of 4 run(s) remaining") {
		t.Errorf("re-run did not resume from the journal:\n%s", stdout)
	}
	sum, err := cheetah.Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.PendingRuns) != 0 {
		t.Errorf("runs still pending after the re-run: %v", sum.PendingRuns)
	}
}

func TestListenCoordinatesAServingWorker(t *testing.T) {
	dir := newCampaign(t)
	// The coordinator prints its address; read it off stdout.
	pr, pw := io.Pipe()
	addrs := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "savanna: coordinating on "); ok {
				addrs <- strings.Fields(rest)[0]
			}
		}
	}()
	var stderr bytes.Buffer
	codes := make(chan int, 1)
	go func() {
		codes <- run([]string{"run", "-campaign", dir, "-listen", "127.0.0.1:0", "-batch", "1"}, pw, &stderr)
		pw.Close()
	}()
	var addr string
	select {
	case addr = <-addrs:
	case code := <-codes:
		t.Fatalf("coordinator exited %d before listening: %s", code, stderr.String())
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never printed its address")
	}
	w := &remote.Worker{
		Name: "w1", Addr: addr, Slots: 2, ReconnectWait: 10 * time.Second,
		Executor: &savanna.ProcessExecutor{Command: []string{"sh", "-c", "true"}, WorkRoot: t.TempDir()},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Serve(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if code := <-codes; code != 0 {
		t.Fatalf("coordinator exit = %d, want 0: %s", code, stderr.String())
	}
	wantOneSuccessPerRun(t, dir)
}

func TestContradictoryFlagsAreRejected(t *testing.T) {
	dir := newCampaign(t)
	for name, args := range map[string][]string{
		"standby without listen": {"-standby", "--", "true"},
		"sets with listen":       {"-listen", "127.0.0.1:0", "-sets", "2"},
		"template with listen":   {"-listen", "127.0.0.1:0", "--", "true"},
	} {
		code, _, stderr := savannaRun(t, append([]string{"-campaign", dir}, args...)...)
		if code != 2 {
			t.Errorf("%s: exit = %d, want 2 (%s)", name, code, stderr)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "attempts.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected invocation created a journal (stat: %v)", err)
	}
}

func TestBusyMonitorAddrFailsBeforeDispatch(t *testing.T) {
	dir := newCampaign(t)
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	code, stdout, stderr := savannaRun(t, "-campaign", dir, "-monitor-addr", busy.Addr().String(), "--", "sh", "-c", "true")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, stdout, stderr)
	}
	if recs := readJournal(t, dir); len(recs) != 0 {
		t.Errorf("journal holds %d record(s), want none", len(recs))
	}
}

func TestOutputWriteFailureExits1(t *testing.T) {
	dir := newCampaign(t)
	events := filepath.Join(t.TempDir(), "events.jsonl")
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		if op == appendlog.OpWrite && path == events {
			return errors.New("injected write failure")
		}
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()
	code, stdout, stderr := savannaRun(t, "-campaign", dir, "-events", events, "--", "sh", "-c", "true")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "injected write failure") {
		t.Errorf("stderr does not name the failure:\n%s", stderr)
	}
}

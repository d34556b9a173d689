package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net"
	"os"
	"os/exec"
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

// wantEpochs checks that the journal holds exactly one epoch-opened record
// per incarnation, epochs 1..n in order.
func wantEpochs(t *testing.T, dir string, n int) {
	t.Helper()
	var epochs []int64
	for _, r := range readJournal(t, dir) {
		if r.Event == resilience.EpochOpened {
			epochs = append(epochs, r.Epoch)
		}
	}
	if len(epochs) != n {
		t.Fatalf("journal holds epochs %v, want 1..%d", epochs, n)
	}
	for i, e := range epochs {
		if e != int64(i+1) {
			t.Fatalf("journal holds epochs %v, want 1..%d", epochs, n)
		}
	}
}

// wantParamsCopies checks that every run of the campaign in dir left a
// got.json under root/<run id> holding exactly its parameters: the copy a
// "cp params.json got.json" template made of the params.json it found.
func wantParamsCopies(t *testing.T, dir, root string) {
	t.Helper()
	m, err := cheetah.LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Runs {
		data, err := os.ReadFile(filepath.Join(root, r.ID, "got.json"))
		if err != nil {
			t.Errorf("run %s: %v", r.ID, err)
			continue
		}
		var got map[string]string
		if err := json.Unmarshal(data, &got); err != nil || !maps.Equal(got, r.Params) {
			t.Errorf("run %s read params %q (%v), want %v", r.ID, data, err, r.Params)
		}
	}
}

// TestProbeReportsOwedRunsAndWritesNoRunFile: the bare probe reports the
// resume position and writes nothing — no journal and no run file.
func TestProbeReportsOwedRunsAndWritesNoRunFile(t *testing.T) {
	dir := newCampaign(t)
	code, stdout, stderr := savannaRun(t, "-campaign", dir)
	if code != 3 {
		t.Fatalf("probe exit = %d, want 3\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "4 of 4 run(s) remaining") {
		t.Errorf("stdout lacks the resume position:\n%s", stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "attempts.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the probe created a journal (stat: %v)", err)
	}
	runFiles, err := filepath.Glob(filepath.Join(dir, "g", "s", "run-*", "*"))
	if err != nil || len(runFiles) != 0 {
		t.Errorf("the probe wrote run files %q (%v)", runFiles, err)
	}
}

// TestLocalRunWritesParamsWhereEachRunExecutes: each local run finds its
// params.json in its run directory, including a run whose directory was
// removed before the command.
func TestLocalRunWritesParamsWhereEachRunExecutes(t *testing.T) {
	dir := newCampaign(t)
	if err := os.RemoveAll(filepath.Join(dir, "g", "s", "run-00002")); err != nil {
		t.Fatal(err)
	}
	if code, stdout, stderr := savannaRun(t, "-campaign", dir, "--", "sh", "-c", "cp params.json got.json"); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, stdout, stderr)
	}
	wantOneSuccessPerRun(t, dir)
	wantParamsCopies(t, dir, dir)
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
	// The second incarnation fences in at epoch 2 and appends nothing else.
	added, ok := bytes.CutPrefix(after, before)
	if !ok {
		t.Fatalf("second invocation rewrote attempts.jsonl:\nbefore %q\nafter  %q", before, after)
	}
	if recs, err := resilience.DecodeJournal(added); err != nil || len(recs) != 1 || recs[0].Event != resilience.EpochOpened {
		t.Errorf("second invocation appended %q (%v), want one epoch-opened record", added, err)
	}
	wantEpochs(t, dir, 2)
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
	wantEpochs(t, dir, 2)
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
	workdir := t.TempDir()
	w := &remote.Worker{
		Name: "w1", Addr: addr, Slots: 2, ReconnectWait: 10 * time.Second,
		Executor: &savanna.ProcessExecutor{Command: []string{"sh", "-c", "cp params.json got.json"}, WorkRoot: workdir},
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
	// The worker's runs find their params.json under its own work root.
	wantParamsCopies(t, dir, workdir)
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

// TestMain lets a test start this package's test binary as a separate savanna
// process: invoked as "<test binary> run ...", it is the command.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "run" {
		main()
	}
	os.Exit(m.Run())
}

// TestLocalRunRefusedWhileAnotherHolderClaims: a local run claims the
// campaign like any incarnation, so a live claim by another holder refuses it
// before the journal is touched, and the error names the holder and expiry.
func TestLocalRunRefusedWhileAnotherHolderClaims(t *testing.T) {
	dir := newCampaign(t)
	lease := filepath.Join(dir, "attempts.jsonl.lease")
	if _, err := resilience.AcquireFileLease(lease, "elsewhere.1", time.Minute); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := savannaRun(t, "-campaign", dir, "--", "sh", "-c", "true")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, `held by "elsewhere.1" until `) {
		t.Errorf("stderr does not name the holder and expiry:\n%s", stderr)
	}
	if recs := readJournal(t, dir); len(recs) != 0 {
		t.Errorf("a refused run journaled %d record(s)", len(recs))
	}
	if st, _, _ := resilience.ReadFileLease(lease); st.Holder != "elsewhere.1" {
		t.Errorf("the refused run changed the claim: %+v", st)
	}
}

// TestTwoLocalRunsOnOneCampaign starts two savanna processes on one campaign
// at the same moment: one claims it and runs everything once, the other is
// refused, and the journal ends every run with exactly one success.
func TestTwoLocalRunsOnOneCampaign(t *testing.T) {
	dir := newCampaign(t)
	var cmds [2]*exec.Cmd
	var outs [2]bytes.Buffer
	for i := range cmds {
		cmds[i] = exec.Command(os.Args[0], "run", "-campaign", dir, "--", "sh", "-c", "sleep 1")
		cmds[i].Stdout, cmds[i].Stderr = &outs[i], &outs[i]
	}
	for _, c := range cmds {
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	}
	codes := map[int]int{}
	for i, c := range cmds {
		c.Wait()
		codes[c.ProcessState.ExitCode()]++
		t.Logf("process %d exited %d:\n%s", i, c.ProcessState.ExitCode(), outs[i].String())
	}
	if codes[0] != 1 || codes[1] != 1 {
		t.Errorf("exit statuses %v, want one 0 and one 1", codes)
	}
	wantOneSuccessPerRun(t, dir)
	wantEpochs(t, dir, 1)
}

// TestLocalRunTakenOverIsFenced: a successor's claim on the lease file ends a
// local run at its next renewal — the journal is fenced before the campaign
// is cancelled, so neither the killed attempts nor the skipped runs are
// journaled, and the run exits 3. A re-run then finishes the campaign.
func TestLocalRunTakenOverIsFenced(t *testing.T) {
	dir := newCampaign(t)
	var stdout, stderr bytes.Buffer
	codes := make(chan int, 1)
	go func() {
		codes <- run([]string{"run", "-campaign", dir, "--", "sh", "-c", "sleep 30"}, &stdout, &stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for started := 0; started < 4; {
		if time.Now().After(deadline) {
			t.Fatal("the runs never started")
		}
		time.Sleep(10 * time.Millisecond)
		recs, _ := resilience.ReadJournalFile(filepath.Join(dir, "attempts.jsonl"))
		started = 0
		for _, r := range recs {
			if r.Event == resilience.AttemptStart {
				started++
			}
		}
	}
	// What a standby writes when it takes over a claim it found stale.
	lease := filepath.Join(dir, "attempts.jsonl.lease")
	claim, _ := json.Marshal(resilience.FileLeaseState{Holder: "successor", Epoch: 2,
		ExpiresUnixNano: time.Now().Add(time.Minute).UnixNano()})
	if err := appendlog.WriteFileAtomic(lease, claim, 0o644); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-codes:
		if code != 3 {
			t.Fatalf("exit = %d, want 3\n%s%s", code, stdout.String(), stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the deposed run did not stop")
	}
	if !strings.Contains(stderr.String(), `taken over by "successor"`) {
		t.Errorf("stderr does not say the claim was lost:\n%s", stderr.String())
	}
	for _, r := range readJournal(t, dir) {
		if r.Event != resilience.EpochOpened && r.Event != resilience.AttemptStart {
			t.Errorf("the fenced journal took %+v", r)
		}
	}
	if st, _, _ := resilience.ReadFileLease(lease); st.Holder != "successor" {
		t.Errorf("the deposed run dropped its successor's claim: %+v", st)
	}

	if err := os.Remove(lease); err != nil {
		t.Fatal(err)
	}
	if code, out, errOut := savannaRun(t, "-campaign", dir, "--", "sh", "-c", "true"); code != 0 {
		t.Fatalf("re-run exit = %d, want 0\n%s%s", code, out, errOut)
	}
	wantOneSuccessPerRun(t, dir)
	wantEpochs(t, dir, 2)
}

// TestSetsReportsTheEnginesReport: -sets writes the report the engine built,
// quarantine and points included, exactly as the dynamic discipline does.
func TestSetsReportsTheEnginesReport(t *testing.T) {
	for _, sets := range []string{"0", "2"} {
		dir := newCampaign(t)
		out := filepath.Join(t.TempDir(), "report.json")
		code, stdout, stderr := savannaRun(t, "-campaign", dir, "-sets", sets, "-quarantine-after", "1",
			"-base-delay", "0", "-report", out, "--", "false")
		if code != 3 {
			t.Fatalf("-sets %s: exit = %d, want 3\n%s%s", sets, code, stdout, stderr)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var report resilience.CompletenessReport
		if err := json.Unmarshal(data, &report); err != nil {
			t.Fatal(err)
		}
		if report.Total != 4 || report.Quarantined != 4 || report.Failed != 0 || len(report.Points) != 4 {
			t.Errorf("-sets %s: report %s", sets, data)
		}
	}
}

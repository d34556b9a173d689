package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// TestMain doubles the test binary as the coordinator helper process: the
// failover chaos test re-execs itself with REMOTE_FAILOVER_HELPER=1 so a
// coordinator incarnation can be killed with SIGKILL — a real process
// death, not a polite context cancel.
func TestMain(m *testing.M) {
	if os.Getenv("REMOTE_FAILOVER_HELPER") == "1" {
		os.Exit(failoverCoordinatorMain())
	}
	os.Exit(m.Run())
}

// failoverCoordinatorMain is one coordinator incarnation: listen on an
// ephemeral port, publish the bound address for the workers, and run
// Coordinate against the shared journal. Config arrives via FAILOVER_*
// environment variables; exit 0 means the campaign completed.
func failoverCoordinatorMain() int {
	journal := os.Getenv("FAILOVER_JOURNAL")
	addrFile := os.Getenv("FAILOVER_ADDR_FILE")
	holder := os.Getenv("FAILOVER_HOLDER")
	total, err := strconv.Atoi(os.Getenv("FAILOVER_RUNS"))
	if err != nil || journal == "" || addrFile == "" {
		fmt.Fprintln(os.Stderr, "failover helper: bad FAILOVER_* env")
		return 1
	}
	ttl := 500 * time.Millisecond
	if s := os.Getenv("FAILOVER_LEASE_TTL"); s != "" {
		if d, err := time.ParseDuration(s); err == nil {
			ttl = d
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "failover helper:", err)
		return 1
	}
	// Publish the address before Coordinate blocks in standby wait, so
	// workers can already aim their reconnect loops at this incarnation.
	if err := appendlog.WriteFileAtomic(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "failover helper:", err)
		return 1
	}

	events := eventlog.NewLog()
	e := &Engine{
		Listener: ln, BatchSize: 8, LeaseTTL: 400 * time.Millisecond,
		WorkerWait: 30 * time.Second,
		Metrics:    telemetry.NewRegistry(),
		Tracer:     telemetry.NewTracer(),
		Events:     events,
	}
	_, report, info, err := Coordinate(context.Background(), CoordinateConfig{
		Engine:   e,
		Campaign: "failover",
		Runs:     testRuns(total),
		Journal:  journal,
		Holder:   holder,
		Resume:   true,
		Standby:  os.Getenv("FAILOVER_STANDBY") == "1",
		LeaseTTL: ttl,
		AutoSync: 16,
	})

	// The merged event log (coordinator + forwarded worker events) is the
	// CI artifact; only an incarnation that lives to the end writes it.
	if out := os.Getenv("FAILOVER_EVENTS"); out != "" {
		var buf bytes.Buffer
		for _, ev := range events.Snapshot() {
			if b, jerr := json.Marshal(ev); jerr == nil {
				buf.Write(b)
				buf.WriteByte('\n')
			}
		}
		appendlog.WriteFileAtomic(out, buf.Bytes(), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "failover helper %s: %v\n", holder, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "failover helper: %s finished: %s\n", info, report.String())
	if !report.Complete() {
		return 2
	}
	return 0
}

// failoverPayload mirrors chaosPayload — deterministic output bytes from
// the sweep point alone — but stalls in the milliseconds so the campaign
// is long enough for two coordinator assassinations to land mid-flight.
func failoverPayload(outDir string, executions *int64, hook func(n int64)) execFn {
	return func(ctx context.Context, run cheetah.Run) error {
		n := atomic.AddInt64(executions, 1)
		if hook != nil {
			hook(n)
		}
		i, _ := strconv.Atoi(run.Params["i"])
		time.Sleep(time.Duration(1+i%4) * time.Millisecond)
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		content := fmt.Sprintf("point i=%d model=%s value=%d\n", i, run.Params["model"], i*i)
		return appendlog.WriteFileAtomic(filepath.Join(outDir, run.ID+".txt"), []byte(content), 0o644)
	}
}

// TestCoordinatorFailoverChaos is the acceptance failover test: SIGKILL
// the coordinator twice mid-campaign (real process death — no deferred
// cleanup, no lease release) with four workers attached, one of which is
// itself killed and replaced. The campaign must still finish with zero
// lost runs, zero double-counted completions, strictly increasing epochs,
// and an output tree byte-identical to a LocalEngine baseline.
func TestCoordinatorFailoverChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos spawns subprocesses; skipped in -short")
	}
	total := chaosRuns(t)
	runs := testRuns(total)
	dir := t.TempDir()

	// Local baseline: the ground-truth output tree.
	localOut := filepath.Join(dir, "local")
	os.MkdirAll(localOut, 0o755)
	var localExecs int64
	local := &savanna.LocalEngine{Workers: 4,
		Executor: failoverPayload(localOut, &localExecs, nil)}
	if _, _, err := local.RunCampaign(context.Background(), "failover", runs); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "attempts.jsonl")
	addrFile := filepath.Join(dir, "coordinator.addr")
	remoteOut := filepath.Join(dir, "remote")
	os.MkdirAll(remoteOut, 0o755)

	// Coordinator incarnations are child processes of this test binary so a
	// kill is a genuine SIGKILL: the dying incarnation gets no chance to
	// sync, release its lease, or say goodbye.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spawn := func(holder string, standby bool) *exec.Cmd {
		cmd := exec.Command(exe, "-test.run=NONE")
		cmd.Env = append(os.Environ(),
			"REMOTE_FAILOVER_HELPER=1",
			"FAILOVER_JOURNAL="+jpath,
			"FAILOVER_ADDR_FILE="+addrFile,
			"FAILOVER_HOLDER="+holder,
			"FAILOVER_RUNS="+strconv.Itoa(total),
			"FAILOVER_LEASE_TTL=500ms",
		)
		if standby {
			cmd.Env = append(cmd.Env, "FAILOVER_STANDBY=1")
		}
		if adir := os.Getenv("REMOTE_FAILOVER_ARTIFACT_DIR"); adir != "" {
			cmd.Env = append(cmd.Env, "FAILOVER_EVENTS="+filepath.Join(adir, "events.jsonl"))
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	// Workers live in this process and must outlive every coordinator:
	// Serve reconnects through the published address file.
	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	dial := func() (net.Conn, error) {
		b, err := os.ReadFile(addrFile)
		if err != nil {
			return nil, err
		}
		return net.DialTimeout("tcp", string(b), 2*time.Second)
	}
	var execs int64
	var wg sync.WaitGroup
	w3ctx, w3kill := context.WithCancel(ctx)
	defer w3kill()
	var rejoinOnce sync.Once
	startWorker := func(name string, wctx context.Context, hook func(n int64)) {
		w := &Worker{Name: name, Dial: dial,
			Executor: failoverPayload(remoteOut, &execs, hook),
			Slots:    2, Heartbeat: 50 * time.Millisecond,
			ReconnectWait: 60 * time.Second,
			Tracer:        telemetry.NewTracer(),
			Metrics:       telemetry.NewRegistry(),
			Events:        eventlog.NewLog()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Serve(wctx)
		}()
	}
	// w3 dies a third of the way in and a replacement rejoins — the worker
	// half of the failover matrix, on top of the coordinator kills.
	w3hook := func(n int64) {
		if n >= int64(total/3) {
			rejoinOnce.Do(func() {
				w3kill()
				go func() {
					time.Sleep(50 * time.Millisecond)
					startWorker("w3", ctx, nil)
				}()
			})
		}
	}
	startWorker("w0", ctx, nil)
	startWorker("w1", ctx, nil)
	startWorker("w2", ctx, nil)
	startWorker("w3", w3ctx, w3hook)

	// doneCount polls the shared journal — the only state that survives a
	// SIGKILL, and exactly what the next incarnation will replay.
	doneCount := func() int {
		recs, err := resilience.ReadJournalFile(jpath)
		if err != nil {
			return 0
		}
		return len(resilience.Replay(recs).Done)
	}
	waitProgress := func(target int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			if doneCount() >= target {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("campaign stalled before reaching %d/%d done", target, total)
	}

	// Incarnation 1 starts fresh; kill it around 25% done.
	coord := spawn("coord-1", false)
	waitProgress(total / 4)
	coord.Process.Kill()
	coord.Wait()
	t.Logf("killed coord-1 at %d/%d done", doneCount(), total)

	// Incarnation 2 is a warm standby: it waits out the dead claim, fences
	// epoch 2, and resumes. Kill it around 55%.
	coord = spawn("coord-2", true)
	waitProgress(total * 55 / 100)
	coord.Process.Kill()
	coord.Wait()
	t.Logf("killed coord-2 at %d/%d done", doneCount(), total)

	// Incarnation 3 finishes the campaign.
	coord = spawn("coord-3", true)
	if err := coord.Wait(); err != nil {
		t.Fatalf("final incarnation failed: %v", err)
	}

	cancelAll()
	wg.Wait()
	t.Logf("%d executions for %d runs (%.4f a run)", execs, total, float64(execs)/float64(total))

	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	successes := map[string]int{}
	var epochs []int64
	for _, r := range recs {
		switch r.Event {
		case resilience.AttemptSuccess, resilience.AttemptCached:
			successes[r.Run]++
		case resilience.EpochOpened:
			epochs = append(epochs, r.Epoch)
		}
	}

	// Three incarnations fenced in, each at a strictly higher epoch.
	if len(epochs) != 3 {
		t.Fatalf("epoch records = %v, want 3 incarnations", epochs)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epochs not strictly increasing: %v", epochs)
		}
	}

	// Zero lost runs, zero double-counted completions: exactly one terminal
	// success per run across all three incarnations — re-dispatches and
	// spool replays collapse into duplicates, never second successes.
	for _, r := range runs {
		if successes[r.ID] != 1 {
			t.Fatalf("run %s: %d success records across incarnations, want exactly 1", r.ID, successes[r.ID])
		}
	}
	st := resilience.Replay(recs)
	if rem := st.Remaining(runIDs(runs)); len(rem) != 0 {
		t.Fatalf("%d runs still owed after final incarnation: %v", len(rem), rem[:min(8, len(rem))])
	}

	// Byte-identical to the local baseline.
	for _, r := range runs {
		want, err := os.ReadFile(filepath.Join(localOut, r.ID+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(remoteOut, r.ID+".txt"))
		if err != nil {
			t.Fatalf("remote output missing for %s: %v", r.ID, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %s: remote output %q != local %q", r.ID, got, want)
		}
	}

	// CI artifact export: the raw journal (torn tail and all) and the final
	// incarnation's merged events.jsonl.
	if adir := os.Getenv("REMOTE_FAILOVER_ARTIFACT_DIR"); adir != "" {
		os.MkdirAll(adir, 0o755)
		raw, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(adir, "attempts.jsonl"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package cheetah

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// materializeDemo materialises demoCampaign (7 runs) in a fresh directory.
func materializeDemo(t *testing.T) (string, *Manifest) {
	t.Helper()
	m, err := BuildManifest(demoCampaign())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return dir, m
}

func mustStatuses(t *testing.T, dir string) map[string]RunStatus {
	t.Helper()
	st, err := RunStatuses(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatusLogTornTailEveryOffset cuts the log at every byte offset of its
// last record: Status must equal the state before that record, and the next
// Set must land on a clean line.
func TestStatusLogTornTailEveryOffset(t *testing.T) {
	dir, m := materializeDemo(t)
	l, err := OpenStatusLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range m.Runs[:4] {
		if err := l.Set(StatusLine{run.ID, []RunStatus{RunRunning, RunSucceeded}[i%2]}); err != nil {
			t.Fatal(err)
		}
	}
	before := mustStatuses(t, dir)
	path := filepath.Join(dir, statusLogName)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Set(StatusLine{m.Runs[0].ID, RunFailed}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mustStatuses(t, dir)[m.Runs[0].ID] != RunFailed {
		t.Fatal("last record not applied to the uncut log")
	}

	for cut := len(whole); cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got := mustStatuses(t, dir); !reflect.DeepEqual(got, before) {
			t.Fatalf("cut at %d: statuses %v, want the state before the last record %v", cut, got, before)
		}
		if err := SetRunStatus(dir, m.Runs[5].ID, RunSucceeded); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		got := mustStatuses(t, dir)
		if got[m.Runs[5].ID] != RunSucceeded || got[m.Runs[0].ID] != before[m.Runs[0].ID] {
			t.Fatalf("cut at %d: after the next Set statuses are %v", cut, got)
		}
		data, _ := os.ReadFile(path)
		if want := string(whole) + `{"run":"` + m.Runs[5].ID + `","status":"succeeded"}` + "\n"; string(data) != want {
			t.Fatalf("cut at %d: log is %q, want the torn tail gone and one clean line after %q", cut, data, whole)
		}
	}
}

// TestStatusLogCorruptMiddleLine: a terminated line that fails validation is
// corruption, not a torn write — the statuses after it would be silently
// wrong, so Status fails.
func TestStatusLogCorruptMiddleLine(t *testing.T) {
	for _, bad := range []string{
		`{"run":"g1/s1/run-00000","status":"succ`,
		`{"run":"g1/s1/run-00000","status":"done"}`,
		`{"run":"","status":"failed"}`,
		`g1/s1/run-00000	failed`,
		``,
	} {
		dir, m := materializeDemo(t)
		log := `{"run":"` + m.Runs[1].ID + `","status":"running"}` + "\n" + bad + "\n" +
			`{"run":"` + m.Runs[1].ID + `","status":"succeeded"}` + "\n"
		if err := os.WriteFile(filepath.Join(dir, statusLogName), []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Status(dir); err == nil || !strings.Contains(err.Error(), "status.log: line 2") {
			t.Errorf("corrupt line %q: Status error = %v, want one naming status.log line 2", bad, err)
		}
	}
}

// TestStatusIgnoresUnlistedRun: SetRunStatus refuses a run the directory does
// not have (TestMaterializeAndStatus), and a log line naming one — another
// writer's, or a later manifest's — is skipped rather than counted.
func TestStatusIgnoresUnlistedRun(t *testing.T) {
	dir, m := materializeDemo(t)
	if err := SetRunStatus(dir, "ghost/run", RunFailed); err == nil || !strings.Contains(err.Error(), `unknown run "ghost/run"`) {
		t.Fatalf("unknown run: err = %v", err)
	}
	l, err := OpenStatusLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Set(StatusLine{"ghost/run", RunFailed}); err != nil {
		t.Fatal(err)
	}
	if err := l.Set(StatusLine{m.Runs[3].ID, RunSucceeded}); err != nil {
		t.Fatal(err)
	}
	if err := l.Set(StatusLine{m.Runs[3].ID, "done"}); err == nil {
		t.Fatal("Set accepted a status outside the schema")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 7 || sum.ByStatus[RunSucceeded] != 1 || sum.ByStatus[RunPending] != 6 || sum.ByStatus[RunFailed] != 0 {
		t.Fatalf("summary counts an unlisted run: %+v", sum)
	}
	if err := l.Set(StatusLine{m.Runs[0].ID, RunFailed}); err == nil {
		t.Fatal("Set on a closed log reported success")
	}
}

// TestStatusLogSurvivesKill: every status whose Set returned is there after
// the process is killed with no Close. The child (this test binary re-run
// with CHEETAH_KILL_DIR set) announces each run only after its Set returned;
// the parent kills it mid-campaign and reads the directory.
func TestStatusLogSurvivesKill(t *testing.T) {
	if dir := os.Getenv("CHEETAH_KILL_DIR"); dir != "" {
		m, err := LoadCampaignDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		l, err := OpenStatusLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range m.Runs {
			if err := l.Set(StatusLine{run.ID, RunRunning}); err != nil {
				t.Fatal(err)
			}
			if err := l.Set(StatusLine{run.ID, RunSucceeded}); err != nil {
				t.Fatal(err)
			}
			fmt.Printf("set %d\n", i)
		}
		select {} // wait for the kill with the handle still open
	}
	values := make([]string, 400)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	m, err := BuildManifest(Campaign{Name: "kill", App: "a", Groups: []SweepGroup{{
		Name: "g", Nodes: 1, WalltimeMinutes: 1,
		Sweeps: []Sweep{{Name: "s", Parameters: []Parameter{{Name: "i", Values: values}}}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStatusLogSurvivesKill$")
	cmd.Env = append(os.Environ(), "CHEETAH_KILL_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	announced := 0
	sc := bufio.NewScanner(out)
	for announced < 250 && sc.Scan() {
		var i int
		if _, err := fmt.Sscanf(sc.Text(), "set %d", &i); err == nil {
			announced = i + 1
		}
	}
	cmd.Process.Kill() // SIGKILL: no Close, no fsync, nothing deferred runs
	cmd.Wait()
	if announced < 250 {
		t.Fatalf("child announced only %d runs", announced)
	}
	got := mustStatuses(t, dir)
	for i := 0; i < announced; i++ {
		if st := got[m.Runs[i].ID]; st != RunSucceeded {
			t.Fatalf("run %d was announced succeeded but reads %q after kill -9", i, st)
		}
	}
	for _, st := range got {
		if !st.valid() {
			t.Fatalf("status %q after kill -9", st)
		}
	}
}

// TestStatusLogSetAllocation pins the cost model: a Set encodes into the
// handle's buffer and writes it — at most the line is allocated.
func TestStatusLogSetAllocation(t *testing.T) {
	dir, m := materializeDemo(t)
	l, err := OpenStatusLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	id := m.Runs[0].ID
	if n := testing.AllocsPerRun(1000, func() {
		if err := l.Set(StatusLine{id, RunSucceeded}); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("Set allocates %.0f objects per call, want at most the line", n)
	}
}

// TestStatusLogSetBatch: the lines of one Set land in order (the last line
// of a run wins) with one write, and one invalid line refuses them all.
func TestStatusLogSetBatch(t *testing.T) {
	dir, m := materializeDemo(t)
	l, err := OpenStatusLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.Runs[0].ID, m.Runs[1].ID
	if err := l.Set(StatusLine{a, RunRunning}, StatusLine{b, RunRunning}, StatusLine{a, RunSucceeded}); err != nil {
		t.Fatal(err)
	}
	if err := l.Set(StatusLine{b, RunFailed}, StatusLine{b, "done"}); err == nil {
		t.Fatal("a batch holding a status outside the schema was accepted")
	}
	if err := l.Set(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := mustStatuses(t, dir)
	if got[a] != RunSucceeded || got[b] != RunRunning {
		t.Fatalf("%s is %q and %s is %q, want succeeded and running (the refused batch wrote nothing)", a, got[a], b, got[b])
	}
	data, err := os.ReadFile(filepath.Join(dir, "status.log"))
	if err != nil || strings.Count(string(data), "\n") != 3 {
		t.Fatalf("status.log holds %q (%v), want the three lines of the one good batch", data, err)
	}
}

// TestMaterializeWritesManifestLast: campaign.json is the commit marker. A
// Materialize that fails part-way — here the third run directory cannot be
// created — leaves a directory LoadCampaignDir rejects, not one it accepts
// with run directories missing.
func TestMaterializeWritesManifestLast(t *testing.T) {
	m, err := BuildManifest(demoCampaign())
	if err != nil {
		t.Fatal(err)
	}
	m.Runs[2].ID = "g1/s1/" + strings.Repeat("x", 300) // no file system takes a 300-byte name
	root := t.TempDir()
	if _, err := m.Materialize(root); err == nil {
		t.Fatal("Materialize succeeded with an uncreatable run directory")
	}
	dir := filepath.Join(root, m.Campaign.Name)
	if _, err := os.Stat(filepath.Join(dir, m.Runs[1].ID)); err != nil {
		t.Fatalf("the run directories before the failure should exist: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "campaign.json")); !os.IsNotExist(err) {
		t.Fatalf("campaign.json present after a failed Materialize (stat err = %v)", err)
	}
	if _, err := LoadCampaignDir(dir); err == nil {
		t.Fatal("LoadCampaignDir accepts a half-materialised directory")
	}
}

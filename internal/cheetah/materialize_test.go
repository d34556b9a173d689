package cheetah

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fairflow/internal/appendlog"
)

// sweepCampaign is a one-group, one-sweep campaign of n runs.
func sweepCampaign(name string, n int) Campaign {
	values := make([]string, n)
	for i := range values {
		values[i] = fmt.Sprint(i)
	}
	return Campaign{Name: name, App: "app", Groups: []SweepGroup{{
		Name: "g", Nodes: 1, WalltimeMinutes: 1,
		Sweeps: []Sweep{{Name: "s", Parameters: []Parameter{{Name: "p", Values: values}}}},
	}}}
}

// wideCampaign has several groups of several sweeps, so the tree has more
// than one parent at every level.
func wideCampaign() Campaign {
	c := Campaign{Name: "wide", App: "app"}
	for g := 0; g < 3; g++ {
		group := SweepGroup{Name: fmt.Sprintf("g%d", g), Nodes: 1, WalltimeMinutes: 1}
		for s := 0; s <= g; s++ {
			group.Sweeps = append(group.Sweeps, Sweep{
				Name: fmt.Sprintf("s%d", s),
				Parameters: []Parameter{
					{Name: "a", Values: []string{"x", "y", "z"}},
					{Name: "b", Values: []string{"1", "2"}},
				},
			})
		}
		c.Groups = append(c.Groups, group)
	}
	return c
}

// referenceMaterialize is the tree Materialize must produce, written the
// plain way: MkdirAll and os.WriteFile, one run at a time.
func referenceMaterialize(t *testing.T, m *Manifest, root string) string {
	t.Helper()
	dir := filepath.Join(root, m.Campaign.Name)
	for _, run := range m.Runs {
		runDir := filepath.Join(dir, run.ID)
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		params, err := json.MarshalIndent(run.Params, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(runDir, "params.json"), params, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var manifest bytes.Buffer
	if err := m.Write(&manifest); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "campaign.json"), manifest.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// treeOf lists every entry under dir as "relative/path mode [content]".
func treeOf(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		info, err := d.Info()
		if err != nil {
			return err
		}
		line := fmt.Sprintf("%s %v", rel, info.Mode())
		if !d.IsDir() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			line += " " + string(data)
		}
		out = append(out, line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMaterializeTreeMatchesReference: same paths, same bytes, same modes as
// the plain writer gives under the process umask (0644 and 0755 under 022),
// and no other entry — no temp leftover.
func TestMaterializeTreeMatchesReference(t *testing.T) {
	for _, c := range []Campaign{wideCampaign(), sweepCampaign("big", 2000)} {
		m, err := BuildManifest(c)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := m.Materialize(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got, want := treeOf(t, dir), treeOf(t, referenceMaterialize(t, m, t.TempDir()))
		if len(got) != len(want) {
			t.Errorf("%s: %d entries, reference has %d", c.Name, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("%s: entry %d is %q, reference has %q", c.Name, i, got[i], want[i])
			}
		}
		if back, err := LoadCampaignDir(dir); err != nil || len(back.Runs) != len(m.Runs) {
			t.Fatalf("%s: load: %v", c.Name, err)
		}
	}
}

// opTrace records every open, write and fsync made through appendlog's
// failpoint hook for the length of the test, in order, with whether the
// manifest (its temp file or campaign.json itself) existed in campaignDir at
// that moment; fail names the paths whose writes are refused.
type opTrace struct {
	mu      sync.Mutex
	ops     []appendlog.Op
	paths   []string
	present []bool
}

func traceOps(t *testing.T, campaignDir string, fail ...string) *opTrace {
	tr := &opTrace{}
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		entries, _ := os.ReadDir(campaignDir)
		var manifest bool
		for _, e := range entries {
			manifest = manifest || strings.Contains(e.Name(), "campaign.json")
		}
		tr.mu.Lock()
		tr.ops = append(tr.ops, op)
		tr.paths = append(tr.paths, path)
		tr.present = append(tr.present, manifest)
		tr.mu.Unlock()
		if op == appendlog.OpWrite && slices.Contains(fail, path) {
			return fs.ErrInvalid
		}
		return nil
	}
	t.Cleanup(func() { appendlog.Failpoint = nil })
	return tr
}

// of returns the paths the trace saw op on, in order.
func (tr *opTrace) of(op appendlog.Op) []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []string
	for i, o := range tr.ops {
		if o == op {
			out = append(out, tr.paths[i])
		}
	}
	return out
}

// TestMaterializeDurableBeforeManifest: campaign.json is the one durable
// record. Materialize fsyncs exactly three paths — campaign.json's temp file,
// the campaign directory that names campaign.json, then root for the
// campaign directory's own entry — and nothing under a run directory; every
// params.json is written before campaign.json's temp file exists.
func TestMaterializeDurableBeforeManifest(t *testing.T) {
	m, err := BuildManifest(wideCampaign())
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	dir := filepath.Join(root, m.Campaign.Name)
	tr := traceOps(t, dir)
	if _, err := m.Materialize(root); err != nil {
		t.Fatal(err)
	}

	synced := tr.of(appendlog.OpSync)
	if len(synced) != 3 || !strings.HasPrefix(filepath.Base(synced[0]), ".campaign.json.tmp-") ||
		filepath.Dir(synced[0]) != dir || synced[1] != dir || synced[2] != root {
		t.Fatalf("fsynced %q, want campaign.json's temp file in %s, then %s, then %s", synced, dir, dir, root)
	}
	manifestAt := -1
	params := map[string]bool{}
	for i, path := range tr.paths {
		switch {
		case manifestAt < 0 && tr.ops[i] == appendlog.OpOpen && strings.HasPrefix(filepath.Base(path), ".campaign.json.tmp-"):
			manifestAt = i
		case filepath.Base(path) == "params.json":
			if manifestAt >= 0 || tr.present[i] {
				t.Fatalf("%s %s after campaign.json's temp file was created", tr.ops[i], path)
			}
			if tr.ops[i] == appendlog.OpWrite {
				params[path] = true
			}
		}
	}
	for _, run := range m.Runs {
		if path := filepath.Join(dir, run.ID, "params.json"); !params[path] {
			t.Fatalf("%s was not written through appendlog before the manifest", path)
		}
	}
}

// TestMaterializeShardFailures: a failure in one shard, or in two at once,
// comes back naming every failing path; the other shards run to their end,
// the failing ones stop where they failed, there is no campaign.json, and no
// goroutine outlives the call.
func TestMaterializeShardFailures(t *testing.T) {
	const n = 64 // the pool is 2–8 wide, so shards hold 8–32 runs
	for _, tc := range []struct {
		name          string
		fail          []int
		exist, absent []int
	}{
		// Whatever the pool width, runs 30 and 31 share a shard, and so do
		// 0–2 and 61–63; 63 never shares one with 30.
		{"middle shard", []int{30}, []int{0, 29, 63}, []int{31}},
		{"two shards", []int{1, 62}, []int{0, 61}, []int{2, 63}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := BuildManifest(sweepCampaign("c", n))
			if err != nil {
				t.Fatal(err)
			}
			root := t.TempDir()
			dir := filepath.Join(root, "c")
			var failing []string
			for _, i := range tc.fail {
				failing = append(failing, filepath.Join(dir, m.Runs[i].ID, "params.json"))
			}
			traceOps(t, dir, failing...)
			goroutines := runtime.NumGoroutine()

			_, err = m.Materialize(root)
			if err == nil {
				t.Fatal("Materialize succeeded although a write failed")
			}
			for _, path := range failing {
				if !strings.Contains(err.Error(), path) {
					t.Errorf("error %q does not name %s", err, path)
				}
			}
			for _, i := range tc.exist {
				if _, err := os.Stat(filepath.Join(dir, m.Runs[i].ID, "params.json")); err != nil {
					t.Errorf("run %d should have been written: %v", i, err)
				}
			}
			for _, i := range tc.absent {
				if _, err := os.Stat(filepath.Join(dir, m.Runs[i].ID)); !os.IsNotExist(err) {
					t.Errorf("run %d follows a failure in its shard and should not exist (stat err = %v)", i, err)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "campaign.json")); !os.IsNotExist(err) {
				t.Errorf("campaign.json present after a failed Materialize (stat err = %v)", err)
			}
			if _, err := LoadCampaignDir(dir); err == nil {
				t.Error("LoadCampaignDir accepts a half-materialised directory")
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines, %d before the call", runtime.NumGoroutine(), goroutines)
				}
			}
			if _, err := m.Materialize(root); err == nil || !strings.Contains(err.Error(), "is the leftover of an interrupted create (no campaign.json); remove it") {
				t.Errorf("retry over the leftover: %v", err)
			}
		})
	}
}

// TestMaterializeFewRuns: no runs, one run, fewer runs than the pool is wide,
// and a count the pool does not divide.
func TestMaterializeFewRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the pool is 8 wide
	for _, n := range []int{0, 1, 3, 7, 9} {
		m, err := BuildManifest(sweepCampaign("few", max(n, 1)))
		if err != nil {
			t.Fatal(err)
		}
		m.Runs = m.Runs[:n] // n = 0 only by hand: a valid campaign has a run
		dir, err := m.Materialize(t.TempDir())
		if err != nil {
			t.Fatalf("%d runs: %v", n, err)
		}
		want := []string{"campaign.json"}
		if n > 0 {
			want = append(want, "g", "g/s")
		}
		for _, run := range m.Runs {
			want = append(want, run.ID, run.ID+"/params.json")
		}
		var got []string
		for _, line := range treeOf(t, dir)[1:] {
			got = append(got, line[:strings.IndexByte(line, ' ')])
		}
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%d runs: tree is %q, want %q", n, got, want)
		}
	}
}

// TestNamesThatAreNotPathElements: campaign, group and sweep names become
// directories, so a name that is not exactly one path element is refused by
// the three Validates, and Materialize refuses a hand-built run ID that
// leaves the campaign directory.
func TestNamesThatAreNotPathElements(t *testing.T) {
	for _, bad := range []string{".", "..", "../../x", "a/b", "/abs", `a\b`, "a\x00b", ""} {
		c := sweepCampaign(bad, 1)
		if err := c.Validate(); err == nil {
			t.Errorf("campaign name %q accepted", bad)
		}
		c = sweepCampaign("ok", 1)
		c.Groups[0].Name = bad
		if err := c.Validate(); err == nil {
			t.Errorf("group name %q accepted", bad)
		}
		c = sweepCampaign("ok", 1)
		c.Groups[0].Sweeps[0].Name = bad
		if err := c.Validate(); err == nil {
			t.Errorf("sweep name %q accepted", bad)
		}
		if _, err := (&Manifest{Version: ManifestVersion, Campaign: Campaign{Name: bad}}).Materialize(t.TempDir()); err == nil {
			t.Errorf("Materialize accepted campaign name %q", bad)
		}
	}
	for _, good := range []string{"a", "a.b", "..a", "run 1", "sweep-α"} {
		if err := sweepCampaign(good, 1).Validate(); err != nil {
			t.Errorf("campaign name %q refused: %v", good, err)
		}
	}

	m, err := BuildManifest(sweepCampaign("c", 2))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, bad := range []string{"../../escaped/run-00001", "/abs/run", "", ".", "g/.."} {
		m.Runs[1].ID = bad
		if _, err := m.Materialize(filepath.Join(root, "campaigns")); err == nil {
			t.Errorf("run ID %q accepted", bad)
		}
	}
	if entries, _ := os.ReadDir(root); len(entries) != 0 {
		t.Fatalf("a refused manifest left %d entries behind", len(entries))
	}
}

// TestMaterializeClaimIsExclusive: of several concurrent creates of one
// campaign exactly one wins, and its directory is complete; the refusals say
// which case they met.
func TestMaterializeClaimIsExclusive(t *testing.T) {
	m, err := BuildManifest(sweepCampaign("c", 200))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	const creators = 6
	errs := make([]error, creators)
	var wg sync.WaitGroup
	for i := 0; i < creators; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Materialize(root)
		}(i)
	}
	wg.Wait()
	var won int
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !strings.Contains(err.Error(), "already exists") && !strings.Contains(err.Error(), "leftover of an interrupted create"):
			t.Errorf("a losing create failed with %v", err)
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent creates succeeded, want exactly 1", won, creators)
	}
	dir := filepath.Join(root, "c")
	if back, err := LoadCampaignDir(dir); err != nil || len(back.Runs) != 200 {
		t.Fatalf("the winner's directory does not load: %v", err)
	}
	if got, want := treeOf(t, dir), treeOf(t, referenceMaterialize(t, m, t.TempDir())); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("the winner's directory has %d entries, the reference %d, or they differ", len(got), len(want))
	}

	if _, err := m.Materialize(root); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("create over a complete directory: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, "campaign.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Materialize(root); err == nil || !strings.Contains(err.Error(), "is the leftover of an interrupted create (no campaign.json); remove it") {
		t.Fatalf("create over a directory without campaign.json: %v", err)
	}
}

// TestRestoreRunFiles: run files a power loss took back — a whole run
// directory, a params.json, one cut to nothing, one holding same-size garbage
// — are re-created from the manifest without an fsync, leaving the tree
// Materialize's reference makes; a second restore finds nothing to do and
// writes nothing.
func TestRestoreRunFiles(t *testing.T) {
	m, err := BuildManifest(wideCampaign())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := m.Materialize(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	params := func(i int) string { return filepath.Join(dir, m.Runs[i].ID, "params.json") }
	last := len(m.Runs) - 1
	if err := os.RemoveAll(filepath.Join(dir, m.Runs[0].ID)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(params(7)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(params(14), 0); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(params(last))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(params(last), bytes.Repeat([]byte{'#'}, int(info.Size())), 0o644); err != nil {
		t.Fatal(err)
	}
	want := treeOf(t, referenceMaterialize(t, m, t.TempDir()))

	tr := traceOps(t, dir)
	restored, err := m.RestoreRunFiles(dir)
	if err != nil || restored != 4 {
		t.Fatalf("restore: %d run files, err %v; want 4", restored, err)
	}
	if synced := tr.of(appendlog.OpSync); len(synced) != 0 {
		t.Fatalf("restore fsynced %q", synced)
	}
	if got := treeOf(t, dir); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("restored tree has %d entries, the reference %d, or they differ:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}

	tr = traceOps(t, dir)
	restored, err = m.RestoreRunFiles(dir)
	if err != nil || restored != 0 {
		t.Fatalf("second restore: %d run files, err %v; want 0", restored, err)
	}
	if wrote := append(tr.of(appendlog.OpWrite), tr.of(appendlog.OpSync)...); len(wrote) != 0 {
		t.Fatalf("second restore wrote %q", wrote)
	}
	if got := treeOf(t, dir); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatal("second restore changed the tree")
	}
}

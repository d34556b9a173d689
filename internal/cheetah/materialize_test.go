package cheetah

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

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
// plain way: MkdirAll per run, then os.WriteFile of campaign.json. No run
// file: a run's params.json is its executor's to write.
func referenceMaterialize(t *testing.T, m *Manifest, root string) string {
	t.Helper()
	dir := filepath.Join(root, m.Campaign.Name)
	for _, run := range m.Runs {
		if err := os.MkdirAll(filepath.Join(dir, run.ID), 0o755); err != nil {
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
// and no other entry — no params.json, no temp leftover.
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

// TestMaterializeDurableBeforeManifest: campaign.json is the one file create
// writes and the one durable record. Whatever N is, Materialize claims the
// campaign directory, makes the group and sweep directories, opens the sweep
// directory once and makes each run directory in it; then it opens one file,
// campaign.json's temp file, and writes and fsyncs it, then opens and fsyncs
// the campaign directory that names campaign.json, then root for the
// campaign directory's own entry — and opens, writes or fsyncs nothing under
// a run directory.
func TestMaterializeDurableBeforeManifest(t *testing.T) {
	var ops []string // every step made through appendlog, as "op path"
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		ops = append(ops, string(op)+" "+path)
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()
	for _, n := range []int{1, 1000} {
		m, err := BuildManifest(sweepCampaign("c", n))
		if err != nil {
			t.Fatal(err)
		}
		root := t.TempDir()
		dir := filepath.Join(root, m.Campaign.Name)
		sweep := filepath.Join(dir, "g", "s")
		ops = nil
		if _, err := m.Materialize(root); err != nil {
			t.Fatal(err)
		}
		want := []string{"mkdir " + dir, "mkdir " + filepath.Join(dir, "g"), "mkdir " + sweep, "open " + sweep}
		for _, run := range m.Runs {
			want = append(want, "mkdir "+filepath.Join(dir, run.ID))
		}
		var tmp string
		if len(ops) > len(want) {
			tmp = strings.TrimPrefix(ops[len(want)], "open ")
		}
		if filepath.Dir(tmp) != dir || !strings.HasPrefix(filepath.Base(tmp), ".campaign.json.tmp-") {
			t.Fatalf("%d runs: no open of campaign.json's temp file in %s after the run directories; steps\n%s", n, dir, strings.Join(ops, "\n"))
		}
		want = append(want, "open "+tmp, "write "+tmp, "sync "+tmp, "open "+dir, "sync "+dir, "open "+root, "sync "+root)
		if strings.Join(ops, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%d runs: steps\n%s\nwant\n%s", n, strings.Join(ops, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestMaterializeInterleavedSweeps: a hand-ordered manifest whose runs
// alternate between sweeps (and one in its own group) gets the same tree as
// the reference: the run directories' parent is re-opened each time it
// changes, and its directory opens are counted.
func TestMaterializeInterleavedSweeps(t *testing.T) {
	m, err := BuildManifest(wideCampaign())
	if err != nil {
		t.Fatal(err)
	}
	var g2 []Run
	for _, run := range m.Runs {
		if run.Group == "g2" {
			g2 = append(g2, run)
		}
	}
	// Deal g2's three sweeps round-robin, then put g0's runs after them.
	var dealt []Run
	for i := 0; i < len(g2)/3; i++ {
		for s := 0; s < 3; s++ {
			dealt = append(dealt, g2[s*len(g2)/3+i])
		}
	}
	var rest []Run
	for _, run := range m.Runs {
		if run.Group != "g2" {
			rest = append(rest, run)
		}
	}
	m.Runs = append(dealt, rest...)

	opens := map[string]int{}
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		if op == appendlog.OpOpen {
			opens[path]++
		}
		return nil
	}
	defer func() { appendlog.Failpoint = nil }()
	root := t.TempDir()
	dir, err := m.Materialize(root)
	if err != nil {
		t.Fatal(err)
	}
	appendlog.Failpoint = nil
	if got, want := treeOf(t, dir), treeOf(t, referenceMaterialize(t, m, t.TempDir())); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("tree\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, c := range []struct {
		sweep string
		want  int
	}{{"g2/s0", len(dealt) / 3}, {"g2/s1", len(dealt) / 3}, {"g2/s2", len(dealt) / 3}, {"g0/s0", 1}, {"g1/s0", 1}, {"g1/s1", 1}} {
		if got := opens[filepath.Join(dir, c.sweep)]; got != c.want {
			t.Errorf("%s opened %d times, want %d", c.sweep, got, c.want)
		}
	}
}

// TestMaterializeFewRuns: no runs, one run and a few make run directories
// and campaign.json, and nothing else.
func TestMaterializeFewRuns(t *testing.T) {
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
			want = append(want, run.ID)
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

package cheetah

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func demoCampaign() Campaign {
	return Campaign{
		Name:    "codesign",
		App:     "simulator",
		Account: "CSC000",
		Groups: []SweepGroup{
			{
				Name: "g1", Nodes: 4, WalltimeMinutes: 60,
				Sweeps: []Sweep{
					{
						Name: "s1",
						Parameters: []Parameter{
							{Name: "compression", Layer: Middleware, Values: []string{"none", "zfp"}},
							{Name: "procs", Layer: System, Values: []string{"2", "4", "8"}},
						},
					},
				},
			},
			{
				Name: "g2", Nodes: 2, WalltimeMinutes: 30,
				Sweeps: []Sweep{
					{
						Name:       "s2",
						Parameters: []Parameter{{Name: "steps", Layer: Application, Values: []string{"10"}}},
					},
				},
			},
		},
	}
}

func TestParameterValidate(t *testing.T) {
	bad := []Parameter{
		{Values: []string{"1"}},
		{Name: "x"},
		{Name: "x", Layer: "cloud", Values: []string{"1"}},
		{Name: "x", Values: []string{"1", "1"}},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad parameter %d accepted", i)
		}
	}
	if (Parameter{Name: "ok", Values: []string{"1"}}).Validate() != nil {
		t.Fatal("valid parameter rejected")
	}
}

func TestIntRange(t *testing.T) {
	p, err := IntRange("n", System, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Values) != 3 || p.Values[0] != "2" || p.Values[2] != "10" {
		t.Fatalf("values: %v", p.Values)
	}
	if _, err := IntRange("n", System, 5, 1, 1); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := IntRange("n", System, 1, 5, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestSweepPointsCrossProduct(t *testing.T) {
	s := demoCampaign().Groups[0].Sweeps[0]
	if s.Size() != 6 {
		t.Fatalf("size = %d", s.Size())
	}
	points := s.Points()
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	// Deterministic order: first parameter slowest.
	if points[0]["compression"] != "none" || points[0]["procs"] != "2" {
		t.Fatalf("first point: %v", points[0])
	}
	if points[5]["compression"] != "zfp" || points[5]["procs"] != "8" {
		t.Fatalf("last point: %v", points[5])
	}
	seen := map[string]bool{}
	for _, p := range points {
		key := p["compression"] + "/" + p["procs"]
		if seen[key] {
			t.Fatalf("duplicate point %s", key)
		}
		seen[key] = true
	}
}

func TestSweepPointsSizeProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		vals := func(n int, prefix string) []string {
			out := make([]string, n)
			for i := range out {
				out[i] = prefix + string(rune('0'+i))
			}
			return out
		}
		na, nb, nc := int(a)%4+1, int(b)%4+1, int(c)%4+1
		s := Sweep{Name: "s", Parameters: []Parameter{
			{Name: "pa", Values: vals(na, "a")},
			{Name: "pb", Values: vals(nb, "b")},
			{Name: "pc", Values: vals(nc, "c")},
		}}
		return len(s.Points()) == na*nb*nc && s.Size() == na*nb*nc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignValidateAndSize(t *testing.T) {
	c := demoCampaign()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 7 {
		t.Fatalf("size = %d", c.Size())
	}
	bad := c
	bad.App = ""
	if bad.Validate() == nil {
		t.Fatal("missing app accepted")
	}
	dup := demoCampaign()
	dup.Groups[1].Name = "g1"
	if dup.Validate() == nil {
		t.Fatal("duplicate group accepted")
	}
	empty := demoCampaign()
	empty.Groups[0].Sweeps = nil
	if empty.Validate() == nil {
		t.Fatal("empty group accepted")
	}
	badNodes := demoCampaign()
	badNodes.Groups[0].Nodes = 0
	if badNodes.Validate() == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestEnumerateRunsDeterministicAndUnique(t *testing.T) {
	c := demoCampaign()
	a, err := c.EnumerateRuns()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.EnumerateRuns()
	if len(a) != 7 || len(b) != 7 {
		t.Fatalf("runs = %d, %d", len(a), len(b))
	}
	ids := map[string]bool{}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("enumeration not deterministic")
		}
		if ids[a[i].ID] {
			t.Fatalf("duplicate run id %s", a[i].ID)
		}
		ids[a[i].ID] = true
	}
	if a[0].ID != "g1/s1/run-00000" {
		t.Fatalf("first id: %s", a[0].ID)
	}
}

func TestParamNames(t *testing.T) {
	got := demoCampaign().ParamNames()
	want := []string{"compression", "procs", "steps"}
	if len(got) != len(want) {
		t.Fatalf("names: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names: %v", got)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m, err := BuildManifest(demoCampaign())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Campaign.Name != "codesign" || len(back.Runs) != 7 {
		t.Fatalf("round trip: %+v", back.Campaign)
	}
}

func TestReadManifestRejectsCorruption(t *testing.T) {
	if _, err := ReadManifest(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	m, _ := BuildManifest(demoCampaign())
	m.Version = 99
	var buf bytes.Buffer
	m.Write(&buf)
	if _, err := ReadManifest(&buf); err == nil {
		t.Fatal("wrong version accepted")
	}
	m2, _ := BuildManifest(demoCampaign())
	m2.Runs = m2.Runs[:3]
	buf.Reset()
	m2.Write(&buf)
	if _, err := ReadManifest(&buf); err == nil {
		t.Fatal("run-count mismatch accepted")
	}
}

func TestMaterializeAndStatus(t *testing.T) {
	root := t.TempDir()
	m, _ := BuildManifest(demoCampaign())
	dir, err := m.Materialize(root)
	if err != nil {
		t.Fatal(err)
	}
	// Directory schema exists.
	if _, err := os.Stat(filepath.Join(dir, "campaign.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "g1/s1/run-00003")); err != nil {
		t.Fatal(err)
	}
	// Double materialisation is refused.
	if _, err := m.Materialize(root); err == nil {
		t.Fatal("overwrote existing campaign dir")
	}

	back, err := LoadCampaignDir(dir)
	if err != nil || len(back.Runs) != 7 {
		t.Fatalf("load: %v, %d runs", err, len(back.Runs))
	}

	sum, err := Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 7 || sum.ByStatus[RunPending] != 7 || len(sum.PendingRuns) != 7 {
		t.Fatalf("initial status: %+v", sum)
	}

	if err := SetRunStatus(dir, "g1/s1/run-00000", RunSucceeded); err != nil {
		t.Fatal(err)
	}
	if err := SetRunStatus(dir, "g1/s1/run-00001", RunFailed); err != nil {
		t.Fatal(err)
	}
	if err := SetRunStatus(dir, "ghost/run", RunFailed); err == nil {
		t.Fatal("unknown run accepted")
	}
	sum, _ = Status(dir)
	if sum.ByStatus[RunSucceeded] != 1 || sum.ByStatus[RunFailed] != 1 || len(sum.PendingRuns) != 6 {
		t.Fatalf("status after updates: %+v", sum)
	}
}

func TestZipSweep(t *testing.T) {
	s := Sweep{
		Name: "paired", Mode: Zip,
		Parameters: []Parameter{
			{Name: "resolution", Values: []string{"256", "512", "1024"}},
			{Name: "dt", Values: []string{"0.1", "0.05", "0.025"}},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 {
		t.Fatalf("size = %d", s.Size())
	}
	points := s.Points()
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	if points[1]["resolution"] != "512" || points[1]["dt"] != "0.05" {
		t.Fatalf("zip pairing broken: %v", points[1])
	}
}

func TestZipSweepLengthMismatch(t *testing.T) {
	s := Sweep{
		Name: "bad", Mode: Zip,
		Parameters: []Parameter{
			{Name: "a", Values: []string{"1", "2"}},
			{Name: "b", Values: []string{"x"}},
		},
	}
	if s.Validate() == nil {
		t.Fatal("mismatched zip lengths accepted")
	}
}

func TestUnknownSweepModeRejected(t *testing.T) {
	s := Sweep{Name: "m", Mode: "diagonal",
		Parameters: []Parameter{{Name: "a", Values: []string{"1"}}}}
	if s.Validate() == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestZipSweepInsideCampaign(t *testing.T) {
	c := demoCampaign()
	c.Groups[0].Sweeps = append(c.Groups[0].Sweeps, Sweep{
		Name: "paired", Mode: Zip,
		Parameters: []Parameter{
			{Name: "res", Values: []string{"1", "2"}},
			{Name: "dt", Values: []string{"a", "b"}},
		},
	})
	runs, err := c.EnumerateRuns()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 7+2 {
		t.Fatalf("runs = %d", len(runs))
	}
}

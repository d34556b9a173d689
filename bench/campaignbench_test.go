package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestQuickSmoke pushes every workload through both runs at smoke sizes:
// the wiring, the output checks, the layer replay, the ledger and the
// driver's result line all execute, in a few seconds.
func TestQuickSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		opts := Options{Seed: 1, Quick: true, Trace: trace, OutDir: t.TempDir(), Stdout: io.Discard}
		res, err := Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if len(res.Workloads) != len(Workloads) {
			t.Fatalf("trace=%v: %d workloads ran, want %d", trace, len(res.Workloads), len(Workloads))
		}
		want := EndToEnd
		if trace {
			want = PerLayer
		}
		for i, wr := range res.Workloads {
			if wr.Name != Workloads[i].Name {
				t.Errorf("workload %d is %s, want %s", i, wr.Name, Workloads[i].Name)
			}
			if wr.Failed != 0 || wr.Attempted < 1 {
				t.Errorf("%s: attempted %d, failed %d", wr.Name, wr.Attempted, wr.Failed)
			}
			if len(wr.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wr.Name, trace, len(wr.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := wr.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", wr.Name, trace, m.Name)
				}
			}
			if !trace {
				for _, m := range EndToEnd {
					if wr.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", wr.Name, m.Name, wr.Metrics[m.Name].Value)
					}
				}
			} else {
				if len(wr.Ledger) == 0 || wr.Metrics["ledger.named_fraction"].Value <= 0 {
					t.Errorf("%s: no ledger", wr.Name)
				}
				if fi, err := os.Stat(wr.TraceFile); err != nil || fi.Size() == 0 {
					t.Errorf("%s: trace file %s: %v", wr.Name, wr.TraceFile, err)
				}
			}
			checkContractLine(t, &wr, want)
		}
	}
}

// checkContractLine holds the driver's last line to its contract: exactly
// four keys, and exactly the declared metrics, each a value and a unit.
func checkContractLine(t *testing.T, wr *WorkloadResult, want []Metric) {
	t.Helper()
	line, err := wr.ContractLine()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("%s: result line keys: %s", wr.Name, line)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: result line carries %d metrics, want %d", wr.Name, len(metrics), len(want))
	}
	for _, m := range want {
		if v, ok := metrics[m.Name]; !ok || v.Value == nil || v.Unit != m.Unit {
			t.Errorf("%s: result line metric %s = %+v", wr.Name, m.Name, v)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := GenerateInputs(w.Name, w.quickN, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateInputs(w.Name, w.quickN, 7)
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest() != b.Digest() {
			t.Errorf("%s: the same seed generated different inputs", w.Name)
		}
		if len(a.Runs) != w.quickN {
			t.Errorf("%s: %d runs generated, want %d", w.Name, len(a.Runs), w.quickN)
		}
		// The seed decides the payload lengths and the output bytes; the
		// null-payload workloads have nothing random to generate.
		if a.PayloadNs != nil || a.outputBase != nil {
			c, err := GenerateInputs(w.Name, w.quickN, 8)
			if err != nil {
				t.Fatal(err)
			}
			if a.Digest() == c.Digest() {
				t.Errorf("%s: another seed generated the same inputs", w.Name)
			}
		}
	}
}

// TestDeclarations holds the metric and workload lists to the limits the
// driver refuses a BENCHMARK.json beyond.
func TestDeclarations(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(Workloads) < 2 || len(Workloads) > 8 || len(workloads) != len(Workloads) {
		t.Errorf("%d workloads declared, %d wired", len(Workloads), len(workloads))
	}
	if len(EndToEnd) < 1 || len(EndToEnd) > 16 || len(PerLayer) < 1 || len(PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(EndToEnd), len(PerLayer))
	}
	if RunSeconds < 1 || RunSeconds > 60 {
		t.Errorf("RunSeconds = %d", RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range Workloads {
		use(w.Name)
		if w.Why == "" || utf8.RuneCountInString(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, utf8.RuneCountInString(w.Why))
		}
	}
	setup := false
	for _, m := range EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric carries no bound", m.Name)
		}
	}
	for _, m := range append(append([]Metric(nil), EndToEnd...), PerLayer...) {
		if !unit.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestBenchmarkJSON: the committed contract file is the one the program
// renders (go run ./bench/campaignbench -benchmark-json > BENCHMARK.json).
func TestBenchmarkJSON(t *testing.T) {
	want, err := BenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from campaignbench -benchmark-json")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

func TestCompare(t *testing.T) {
	result := func(rps, overhead, setup float64) *Result {
		m := map[string]MetricValue{}
		for i, v := range []float64{rps, overhead, setup} {
			m[EndToEnd[i].Name] = MetricValue{Summary: Summary{Value: v, N: 7}, Metric: EndToEnd[i]}
		}
		return &Result{Workloads: []WorkloadResult{{Name: LocalDurable, Metrics: m}}}
	}
	base := result(1000, 50, 0.3)
	if diffs := Compare(base, result(1000*(1-EndToEnd[0].Bound/2), 50*(1+EndToEnd[1].Bound/2), 0.29)); len(diffs) != 0 {
		t.Errorf("within every bound, yet: %v", diffs)
	}
	diffs := Compare(base, result(1000*(1-2*EndToEnd[0].Bound), 50*(1-2*EndToEnd[1].Bound), 0.3))
	if len(diffs) != 2 || !strings.Contains(diffs[0], metricRunsPerS+":") || !strings.Contains(diffs[0], "worse") ||
		!strings.Contains(diffs[1], metricOverhead+":") || !strings.Contains(diffs[1], "better") {
		t.Errorf("one metric worse and one better beyond their bounds, got: %v", diffs)
	}
	if diffs := Compare(base, &Result{}); len(diffs) != 1 {
		t.Errorf("a missing workload must be listed, got: %v", diffs)
	}
}

func TestWorkDirHygiene(t *testing.T) {
	user := t.TempDir()
	wd, err := newWorkDir(user)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(wd.child) != user {
		t.Errorf("child %s is not directly under %s", wd.child, user)
	}
	if _, err := wd.sub("rep-*"); err != nil {
		t.Fatal(err)
	}
	wd.remove()
	if entries, err := os.ReadDir(user); err != nil || len(entries) != 0 {
		t.Errorf("after remove the user's directory must exist and be empty: %v, %v", entries, err)
	}

	if err := os.WriteFile(filepath.Join(user, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newWorkDir(user); err == nil {
		t.Error("a work directory that is not empty must be refused")
	}
	if _, err := os.Stat(filepath.Join(user, "keep")); err != nil {
		t.Errorf("the refused directory's contents were touched: %v", err)
	}
}

// TestUndisturbed: repetitions the hypervisor stole from are set aside, but
// never below the five set-ups that lost the least, and a set-up's later
// campaigns (memo_warm) stay or go with it.
func TestUndisturbed(t *testing.T) {
	reps := func(stolen ...float64) []*repetition {
		var out []*repetition
		for _, s := range stolen {
			out = append(out, &repetition{setupNs: 1, stolen: s}, &repetition{stolen: s})
		}
		return out
	}
	for _, c := range []struct {
		name   string
		stolen []float64
		want   []float64
	}{
		{"quiet", []float64{0, 0.004, 0, 0.01, 0, 0}, []float64{0, 0.004, 0, 0.01, 0, 0}},
		{"two noisy", []float64{0, 0.2, 0, 0, 0.05, 0, 0}, []float64{0, 0, 0, 0, 0}},
		{"all noisy", []float64{0.3, 0.1, 0.5, 0.2, 0.4, 0.6, 0.15}, []float64{0.3, 0.1, 0.2, 0.4, 0.15}},
		{"fewer than five", []float64{0.3, 0}, []float64{0.3, 0}},
	} {
		kept := undisturbed(reps(c.stolen...))
		var got []float64
		for i, r := range kept {
			if (i%2 == 0) != (r.setupNs > 0) {
				t.Fatalf("%s: a set-up and its campaigns were separated", c.name)
			}
			if r.setupNs > 0 {
				got = append(got, r.stolen)
			}
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: kept %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

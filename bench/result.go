package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// MetricValue is one reported metric: the median over repetitions (or
// over a unit's timed calls) with its quartiles, count and declaration.
type MetricValue struct {
	Summary
	Metric
	// Values lists an end-to-end metric's value on every repetition, in the
	// order they ran.
	Values []float64 `json:"values,omitempty"`
}

// WorkloadResult is everything one workload reported.
type WorkloadResult struct {
	Name        string `json:"name"`
	Runs        int    `json:"runs"` // N per campaign
	Slots       int    `json:"slots"`
	Repetitions int    `json:"repetitions"`
	// SetAside counts measured repetitions left out of the medians because
	// the hypervisor stole more than maxStolenShare of the CPU time while
	// they ran (untraced run only).
	SetAside int `json:"set_aside,omitempty"`
	// Attempted and Failed count runs over the measured repetitions: a run
	// fails when it is not terminal-success (not cached, on memo_warm).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Metrics holds the end-to-end metrics (untraced run) or the per-layer
	// metrics (traced run).
	Metrics    map[string]MetricValue `json:"metrics"`
	Ledger     []LedgerRow            `json:"ledger,omitempty"`
	GapSamples int                    `json:"dispatch_gap_samples,omitempty"`
	TraceFile  string                 `json:"trace_file,omitempty"`

	wallOverheadUs, cpuOverheadUs float64
}

// Result is one invocation's output file.
type Result struct {
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Quick      bool             `json:"quick,omitempty"`
	WorkdirFS  string           `json:"workdir_fs"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Workloads  []WorkloadResult `json:"workloads"`
}

func (wr *WorkloadResult) set(name string, s Summary) {
	mv := wr.Metrics[name]
	mv.Summary = s
	wr.Metrics[name] = mv
}

// print lists every metric by name with unit, direction and bound, then
// the ledger when there is one.
func (wr *WorkloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s: N=%d, %d slot(s), %d repetition(s), %d runs attempted, %d failed\n",
		wr.Name, wr.Runs, wr.Slots, wr.Repetitions, wr.Attempted, wr.Failed)
	if wr.SetAside > 0 {
		fmt.Fprintf(w, "%d more repetition(s) set aside: the hypervisor stole over %.0f%% of the CPU time while they ran\n", wr.SetAside, 100*maxStolenShare)
	}
	names := make([]string, 0, len(wr.Metrics))
	for name := range wr.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tmedian\tunit\tbetter\tbound\tq1\tq3\tn")
	for _, name := range names {
		m := wr.Metrics[name]
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.2f", m.Bound)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%.6g\t%.6g\t%d\n", name, m.Value, m.Unit, m.Better, bound, m.Q1, m.Q3, m.N)
	}
	tw.Flush()
	if wr.GapSamples > 0 {
		fmt.Fprintf(w, "dispatch gap samples: %d\n", wr.GapSamples)
	}
	if len(wr.Ledger) > 0 {
		printLedger(w, wr.Name, wr.Ledger, wr.cpuOverheadUs, wr.wallOverheadUs, wr.Metrics["campaign.cpu_lanes"].Value)
	}
	if wr.TraceFile != "" {
		fmt.Fprintf(w, "trace: %s\n", wr.TraceFile)
	}
}

// ContractLine renders the one-workload result as the driver's last line of
// standard output: exactly correct, attempted, failed and metrics.
func (wr *WorkloadResult) ContractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(wr.Metrics))
	for name, m := range wr.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, wr.Attempted, wr.Failed, metrics})
}

// WriteFile writes the result as indented JSON.
func (r *Result) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResult loads a result file.
func ReadResult(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Compare lists every (workload, end-to-end metric) pair whose medians
// differ by more than the metric's bound — as a share of a's median, in
// either direction — or that one file lacks. An empty list means the two
// runs agree within the benchmark's own bounds.
func Compare(a, b *Result) []string {
	var out []string
	inB := map[string]WorkloadResult{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from the second result", wa.Name))
			continue
		}
		for _, m := range EndToEnd {
			va, okA := wa.Metrics[m.Name]
			vb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				out = append(out, fmt.Sprintf("%s %s: missing from one result", wa.Name, m.Name))
				continue
			}
			change := (vb.Value - va.Value) / va.Value
			if math.Abs(change) <= m.Bound {
				continue
			}
			verdict := "worse"
			if (change > 0) == (m.Better == "higher") {
				verdict = "better"
			}
			out = append(out, fmt.Sprintf("%s %s: %.6g → %.6g %s, %.1f%% %s (bound %.0f%%)",
				wa.Name, m.Name, va.Value, vb.Value, m.Unit, 100*math.Abs(change), verdict, 100*m.Bound))
		}
	}
	return out
}

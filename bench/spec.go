// Package bench is the library behind campaignbench, the campaign-path
// benchmark: six workloads that push whole campaigns through the engines
// the CLIs deploy, end-to-end metrics measured with the benchmark's tracing
// off, and a per-layer ledger measured from outside the program — by timing
// calls into each layer's public functions and by wrapping the seams the
// engines already expose. README.md in this directory records why each
// workload exists and how every number should be read.
package bench

import "encoding/json"

// Metric names one number the benchmark reports. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec names one workload and records why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names (fixed: later issues cite them).
const (
	LocalDurable  = "local_durable"
	RemoteBare    = "remote_bare"
	RemoteDurable = "remote_durable"
	RemoteHeavy   = "remote_durable_heavytail"
	MemoCold      = "memo_cold"
	MemoWarm      = "memo_warm"
)

// End-to-end metric names.
const (
	metricRunsPerS = "runs_per_s"
	metricOverhead = "overhead_us_per_run"
	metricSetup    = "setup_s"
)

// Workloads is the fixed workload list, in the order a full run executes it.
var Workloads = []WorkloadSpec{
	{LocalDurable, "LocalEngine wired as fairctl resume plus telemetry, null payload: status files, journal, provenance, spans and events do all the work; no wire, no CAS"},
	{RemoteBare, "bare remote.Engine, batch 32, two single-slot workers over loopback, null payload: isolates FBS, message bodies and the coordinator mutex; every durable layer idle"},
	{RemoteDurable, "remote.Coordinate with fairctl coordinate's defaults and one fairctl-worker-wired worker, null payload: the deployed path, per-result critical path serial"},
	{RemoteHeavy, "remote_durable wiring with a seeded log-normal CPU-spin payload (Exp D's shape): payload hides coordinator work, so coordinator-side gains are predicted to leave it unchanged"},
	{MemoCold, "LocalEngine + Memo over a fresh CAS, each run writes a seeded 4 KiB output: the write use of cas (PutFile, ActionCache.Put) and Memo.Record"},
	{MemoWarm, "the memo_cold campaign re-run against its warm memo with Restore = Materialize: the read use of the same layers (ActionCache.Get, Materialize, journal replay)"},
}

// EndToEnd lists the gated metrics. Every workload reports every one of
// them, and none can read 0 — which is why slot_busy_fraction,
// resume_ready_ms and failed_run_fraction (defined on some workloads only,
// or 0 by design) are per-layer metrics here; see README.md.
var EndToEnd = []Metric{
	{Name: metricRunsPerS, Unit: "runs/s", Better: "higher", Bound: 0.25},
	{Name: metricOverhead, Unit: "us", Better: "lower", Bound: 0.25},
	{Name: metricSetup, Unit: "s", Better: "lower", Bound: 0.25},
}

// PerLayer lists the un-gated layer metrics, reported by the traced run.
// A count reads 0 on a workload where its layer is idle; unit costs are
// replayed on every workload.
var PerLayer = []Metric{
	{Name: "campaign.slot_busy_fraction", Unit: "ratio", Better: "higher"},
	{Name: "campaign.failed_run_fraction", Unit: "ratio", Better: "lower"},
	{Name: "campaign.cpu_us_per_run", Unit: "us", Better: "lower"},
	{Name: "campaign.cpu_lanes", Unit: "ratio", Better: "lower"},
	{Name: "bench.payload_mean_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_fraction", Unit: "ratio", Better: "lower"},
	{Name: "ledger.named_fraction", Unit: "ratio", Better: "higher"},

	{Name: "cheetah.set_run_status_us", Unit: "us", Better: "lower"},
	{Name: "cheetah.set_run_status_disk_us", Unit: "us", Better: "lower"},
	{Name: "cheetah.materialize_us_per_run", Unit: "us", Better: "lower"},

	{Name: "resilience.journal_append_nosync_us", Unit: "us", Better: "lower"},
	{Name: "resilience.journal_append_sync32_us", Unit: "us", Better: "lower"},
	{Name: "resilience.journal_append_sync1_us", Unit: "us", Better: "lower"},
	{Name: "resilience.journal_append_sync1_disk_us", Unit: "us", Better: "lower"},
	{Name: "resilience.journal_records_per_run", Unit: "count", Better: "lower"},
	{Name: "resilience.journal_bytes_per_run", Unit: "count", Better: "lower"},
	{Name: "resilience.replay_us_per_record", Unit: "us", Better: "lower"},
	{Name: "resilience.resume_ready_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.controller_us_per_run", Unit: "us", Better: "lower"},

	{Name: "provenance.append_us", Unit: "us", Better: "lower"},
	{Name: "provenance.records_per_run", Unit: "count", Better: "lower"},

	{Name: "telemetry.span_start_end_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.histogram_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.spans_per_run", Unit: "count", Better: "lower"},
	{Name: "telemetry.spans_dropped", Unit: "count", Better: "lower"},

	{Name: "eventlog.append_us", Unit: "us", Better: "lower"},
	{Name: "eventlog.events_per_run", Unit: "count", Better: "lower"},
	{Name: "eventlog.dropped", Unit: "count", Better: "lower"},

	{Name: "stream.fbs_encode_assign_us", Unit: "us", Better: "lower"},
	{Name: "stream.fbs_decode_assign_us", Unit: "us", Better: "lower"},
	{Name: "stream.fbs_encode_outcome_us", Unit: "us", Better: "lower"},
	{Name: "stream.fbs_decode_outcome_us", Unit: "us", Better: "lower"},
	{Name: "stream.loopback_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "stream.wire_bytes_c2w_per_run", Unit: "count", Better: "lower"},
	{Name: "stream.wire_bytes_w2c_per_run", Unit: "count", Better: "lower"},
	{Name: "stream.wire_flushes_c2w_per_run", Unit: "count", Better: "lower"},
	{Name: "stream.wire_flushes_w2c_per_run", Unit: "count", Better: "lower"},

	{Name: "remote.body_marshal_assign_us", Unit: "us", Better: "lower"},
	{Name: "remote.body_unmarshal_assign_us", Unit: "us", Better: "lower"},
	{Name: "remote.body_marshal_outcome_us", Unit: "us", Better: "lower"},
	{Name: "remote.body_unmarshal_outcome_us", Unit: "us", Better: "lower"},
	{Name: "remote.worker_attach_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.dispatch_gap_p50_us", Unit: "us", Better: "lower"},
	{Name: "remote.dispatch_gap_p99_us", Unit: "us", Better: "lower"},
	{Name: "remote.coordinator_self_us_per_run", Unit: "us", Better: "lower"},
	{Name: "remote.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "remote.alloc_bytes_per_run", Unit: "count", Better: "lower"},

	{Name: "savanna.dispatch_gap_p50_us", Unit: "us", Better: "lower"},
	{Name: "savanna.dispatch_gap_p99_us", Unit: "us", Better: "lower"},
	{Name: "savanna.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "savanna.alloc_bytes_per_run", Unit: "count", Better: "lower"},
	{Name: "savanna.engine_self_us_per_run", Unit: "us", Better: "lower"},
	{Name: "savanna.memo_lookup_hit_us", Unit: "us", Better: "lower"},
	{Name: "savanna.memo_record_us", Unit: "us", Better: "lower"},

	{Name: "cas.put_file_4k_us", Unit: "us", Better: "lower"},
	{Name: "cas.hash_file_4k_us", Unit: "us", Better: "lower"},
	{Name: "cas.action_put_us", Unit: "us", Better: "lower"},
	{Name: "cas.action_get_us", Unit: "us", Better: "lower"},
	{Name: "cas.materialize_us", Unit: "us", Better: "lower"},
	{Name: "cas.put_file_4k_disk_us", Unit: "us", Better: "lower"},
}

// perLayerUnit returns a per-layer metric's declared unit.
func perLayerUnit(name string) string {
	for _, m := range PerLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// RunSeconds is the measuring time the driver passes as --seconds: long
// enough that every end-to-end spread in README.md ("Repeatability") holds,
// short enough that the driver's 136 runs fit its time cap.
const RunSeconds = 18

// BenchmarkJSON renders the root BENCHMARK.json from the lists above, so
// the file and the program cannot name different things.
func BenchmarkJSON() ([]byte, error) {
	type boundless struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	perLayer := make([]boundless, len(PerLayer))
	for i, m := range PerLayer {
		perLayer[i] = boundless{m.Name, m.Unit, m.Better}
	}
	type bounded struct {
		boundless
		Bound float64 `json:"bound"`
	}
	endToEnd := make([]bounded, len(EndToEnd))
	for i, m := range EndToEnd {
		endToEnd[i] = bounded{boundless{m.Name, m.Unit, m.Better}, m.Bound}
	}
	data, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []WorkloadSpec `json:"workloads"`
		EndToEnd   []bounded      `json:"end_to_end"`
		PerLayer   []boundless    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench/campaignbench"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	return append(data, '\n'), err
}

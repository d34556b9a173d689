package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// LedgerRow is one layer's line in a workload's per-run ledger.
type LedgerRow struct {
	Layer       string  `json:"layer"` // the unit-cost metric, or the residual's name
	CallsPerRun float64 `json:"calls_per_run"`
	UnitUs      float64 `json:"unit_us"`
	UsPerRun    float64 `json:"us_per_run"`
	// Share is UsPerRun over the CPU overhead per run (see README.md,
	// "Reading the ledger").
	Share float64 `json:"share"`
}

// planRow is one entry of a workload's per-run call plan.
type planRow struct {
	unit  string  // unit-cost metric
	calls float64 // calls per run
}

// callPlan lists which layer calls one run costs on a workload. Calls per
// run come from the traced campaign's counts (m) where a count exists; the
// fixed numbers are read from the source and documented, with line
// references, in README.md ("Call plans").
func callPlan(name string, m map[string]float64) []planRow {
	journal := func(unit string) planRow { return planRow{unit, m["resilience.journal_records_per_run"]} }
	events := planRow{"eventlog.append_us", m["eventlog.events_per_run"]}
	spans := planRow{"telemetry.span_start_end_us", m["telemetry.spans_per_run"]}
	prov := planRow{"provenance.append_us", m["provenance.records_per_run"]}
	controller := planRow{"resilience.controller_us_per_run", 1}

	// Per run the coordinator writes one result-ack; every other
	// coordinator→worker flush is an assign (lease grants and drains are
	// O(workers), not O(runs)).
	assigns := math.Max(m["stream.wire_flushes_c2w_per_run"]-1, 0)
	wire := []planRow{
		{"remote.body_marshal_assign_us", assigns},
		{"stream.fbs_encode_assign_us", assigns},
		{"stream.fbs_decode_assign_us", assigns},
		{"remote.body_unmarshal_assign_us", assigns},
		{"remote.body_marshal_outcome_us", 1},
		// result + result-ack: the ack is a smaller record of the same
		// schema, charged at the result's cost.
		{"stream.fbs_encode_outcome_us", 2},
		{"stream.fbs_decode_outcome_us", 2},
		{"remote.body_unmarshal_outcome_us", 1},
	}

	switch name {
	case LocalDurable:
		return []planRow{
			{"cheetah.set_run_status_us", 2},
			journal("resilience.journal_append_nosync_us"),
			prov, events, spans,
			{"telemetry.counter_inc_ns", 1},
			{"telemetry.histogram_observe_ns", 2},
			controller,
		}
	case RemoteBare:
		return append(wire, controller)
	case RemoteDurable, RemoteHeavy:
		return append(wire,
			planRow{"cheetah.set_run_status_us", 1},
			journal("resilience.journal_append_sync32_us"),
			events, spans,
			planRow{"telemetry.counter_inc_ns", 3},
			planRow{"telemetry.histogram_observe_ns", 3},
			controller,
		)
	case MemoCold:
		return []planRow{
			{"savanna.memo_record_us", 1},
			journal("resilience.journal_append_nosync_us"),
			prov, controller,
		}
	case MemoWarm:
		return []planRow{
			{"savanna.memo_lookup_hit_us", 1},
			{"cas.materialize_us", 1},
			journal("resilience.journal_append_nosync_us"),
			prov, controller,
		}
	}
	return nil
}

// buildLedger prices the call plan with the replayed unit costs. overheadUs
// is the CPU overhead per run (process CPU per run minus measured payload
// per run): CPU time adds up whatever overlaps, so rows and residual sum to
// it exactly. The last row is the residual, named residual.
func buildLedger(name, residual string, m map[string]float64, overheadUs float64) (rows []LedgerRow, namedFraction float64) {
	named := 0.0
	for _, p := range callPlan(name, m) {
		unitUs := m[p.unit]
		if perLayerUnit(p.unit) == "ns" {
			unitUs /= 1e3
		}
		row := LedgerRow{Layer: p.unit, CallsPerRun: p.calls, UnitUs: unitUs, UsPerRun: unitUs * p.calls}
		named += row.UsPerRun
		rows = append(rows, row)
	}
	rows = append(rows, LedgerRow{Layer: residual, CallsPerRun: 1, UnitUs: overheadUs - named, UsPerRun: overheadUs - named})
	if overheadUs > 0 {
		for i := range rows {
			rows[i].Share = rows[i].UsPerRun / overheadUs
		}
		namedFraction = named / overheadUs
	}
	return rows, namedFraction
}

func printLedger(w io.Writer, name string, rows []LedgerRow, overheadUs, wallOverheadUs, lanes float64) {
	fmt.Fprintf(w, "\nledger %s — CPU overhead %.2f us/run (wall overhead %.2f us/run × %.2f busy lanes)\n", name, overheadUs, wallOverheadUs, lanes)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tcalls/run\tunit us\tus/run\tshare\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.1f%%\t\n", r.Layer, r.CallsPerRun, r.UnitUs, r.UsPerRun, 100*r.Share)
	}
	tw.Flush()
}

package provenance

import (
	"sort"
	"time"
)

// DurationStats summarises execution durations of a record selection — the
// "summarize, evaluate and enable queries over heterogeneous provenance
// logs" capability of the campaign-knowledge tier, used for walltime
// planning.
type DurationStats struct {
	Count  int
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Durations computes duration statistics over the records matching q,
// ignoring records that are still running (no end time).
func (s *Store) Durations(q Query) DurationStats {
	var ds []time.Duration
	for _, r := range s.Select(q) {
		if d := r.Duration(); d > 0 || (!r.End.IsZero() && d == 0) {
			ds = append(ds, d)
		}
	}
	out := DurationStats{Count: len(ds)}
	if len(ds) == 0 {
		return out
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	out.Mean = sum / time.Duration(len(ds))
	out.Median = quantileDur(ds, 0.5)
	out.P95 = quantileDur(ds, 0.95)
	out.Min = ds[0]
	out.Max = ds[len(ds)-1]
	return out
}

func quantileDur(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

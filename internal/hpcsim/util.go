package hpcsim

import "sort"

// busyInterval is one closed node-busy interval.
type busyInterval struct {
	start, end float64
}

// UtilRecorder accumulates node-busy intervals and answers utilisation
// queries: the busy fraction of a window, and bucketed timelines like the
// paper's Fig. 6 (nodes in use over time, baseline vs. dynamic scheduling).
type UtilRecorder struct {
	intervals []busyInterval
}

// NewUtilRecorder returns an empty recorder.
func NewUtilRecorder() *UtilRecorder {
	return &UtilRecorder{}
}

// Record adds one node's busy interval. Zero-length intervals are kept:
// they still mark a (degenerate) task placement.
func (u *UtilRecorder) Record(start, end float64) {
	if end < start {
		start, end = end, start
	}
	u.intervals = append(u.intervals, busyInterval{start, end})
}

// TimelinePoint is one bucket of a utilisation timeline.
type TimelinePoint struct {
	// Time is the bucket start.
	Time float64
	// BusyNodes is the average number of busy nodes over the bucket.
	BusyNodes float64
}

// Timeline buckets busy node-time between start and end into the given
// number of equal buckets and reports the average busy-node count per
// bucket. This reproduces the x-axis of the paper's Fig. 6.
func (u *UtilRecorder) Timeline(start, end float64, buckets int) []TimelinePoint {
	if buckets < 1 || end <= start {
		return nil
	}
	width := (end - start) / float64(buckets)
	busy := make([]float64, buckets) // busy node-seconds per bucket
	for _, iv := range u.intervals {
		lo, hi := iv.start, iv.end
		if hi <= start || lo >= end {
			continue
		}
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		first := int((lo - start) / width)
		last := int((hi - start) / width)
		if last >= buckets {
			last = buckets - 1
		}
		for b := first; b <= last; b++ {
			bLo := start + float64(b)*width
			bHi := bLo + width
			segLo, segHi := lo, hi
			if segLo < bLo {
				segLo = bLo
			}
			if segHi > bHi {
				segHi = bHi
			}
			if segHi > segLo {
				busy[b] += segHi - segLo
			}
		}
	}
	out := make([]TimelinePoint, buckets)
	for b := range out {
		out[b] = TimelinePoint{
			Time:      start + float64(b)*width,
			BusyNodes: busy[b] / width,
		}
	}
	return out
}

// UtilizationFraction returns busy node-seconds divided by the capacity
// nodes×(end−start): the scalar Fig. 6 comparison (idle-node waste).
func (u *UtilRecorder) UtilizationFraction(nodes int, start, end float64) float64 {
	if nodes < 1 || end <= start {
		return 0
	}
	capacity := float64(nodes) * (end - start)
	var busy float64
	for _, iv := range u.intervals {
		lo, hi := iv.start, iv.end
		if hi <= start || lo >= end {
			continue
		}
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		busy += hi - lo
	}
	return busy / capacity
}

// Span returns the earliest start and latest end across all intervals.
func (u *UtilRecorder) Span() (start, end float64) {
	if len(u.intervals) == 0 {
		return 0, 0
	}
	ivs := append([]busyInterval(nil), u.intervals...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	start = ivs[0].start
	for _, iv := range ivs {
		if iv.end > end {
			end = iv.end
		}
	}
	return start, end
}

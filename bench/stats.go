package bench

import (
	"sort"

	"fairflow/internal/expt"
)

// Summary is a metric over a workload's repetitions: the median is the
// reported value, the quartiles and count say how far to trust it.
type Summary struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize takes the median and quartiles (linear interpolation between
// order statistics) of xs.
func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{Value: expt.Quantile(s, 0.5), Q1: expt.Quantile(s, 0.25), Q3: expt.Quantile(s, 0.75), N: len(s)}
}

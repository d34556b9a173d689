// Package catalog implements the codesign-campaign catalog of the paper's
// Section II-C: "the output of a codesign campaign is a catalog that
// describes the impact of different parameters on different output metrics",
// with a declarable objective — "searching for optimal runtime, minimizing
// storage space, reducing communication overhead" — that higher-level
// composition and query interfaces are built on.
package catalog

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Entry is one campaign run's contribution to the catalog: its sweep point
// and the output metrics it produced.
type Entry struct {
	RunID   string             `json:"run_id"`
	Params  map[string]string  `json:"params"`
	Metrics map[string]float64 `json:"metrics"`
}

// Catalog accumulates entries for one campaign.
type Catalog struct {
	Campaign string  `json:"campaign"`
	Entries  []Entry `json:"entries"`
}

// New creates an empty catalog.
func New(campaign string) *Catalog {
	return &Catalog{Campaign: campaign}
}

// Add validates and appends an entry.
func (c *Catalog) Add(e Entry) error {
	if e.RunID == "" {
		return fmt.Errorf("catalog: entry needs a run id")
	}
	if len(e.Metrics) == 0 {
		return fmt.Errorf("catalog: entry %s has no metrics", e.RunID)
	}
	for name, v := range e.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("catalog: entry %s metric %q is %v", e.RunID, name, v)
		}
	}
	c.Entries = append(c.Entries, e)
	return nil
}

// Len reports the entry count.
func (c *Catalog) Len() int { return len(c.Entries) }

// MetricNames returns the sorted union of metric names.
func (c *Catalog) MetricNames() []string {
	set := map[string]bool{}
	for _, e := range c.Entries {
		for name := range e.Metrics {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Direction says whether an objective metric is minimised or maximised.
type Direction string

// Objective directions.
const (
	Minimize Direction = "minimize"
	Maximize Direction = "maximize"
)

// Objective declares what a codesign study is searching for.
type Objective struct {
	Metric    string    `json:"metric"`
	Direction Direction `json:"direction"`
}

// Validate checks the objective.
func (o Objective) Validate() error {
	if o.Metric == "" {
		return fmt.Errorf("catalog: objective needs a metric")
	}
	if o.Direction != Minimize && o.Direction != Maximize {
		return fmt.Errorf("catalog: objective direction %q invalid", o.Direction)
	}
	return nil
}

// better reports whether a beats b under the objective.
func (o Objective) better(a, b float64) bool {
	if o.Direction == Minimize {
		return a < b
	}
	return a > b
}

// Best returns the entry optimising the objective. Entries missing the
// metric are skipped; an error is returned if none carry it.
func (c *Catalog) Best(o Objective) (Entry, error) {
	if err := o.Validate(); err != nil {
		return Entry{}, err
	}
	bestIdx := -1
	for i, e := range c.Entries {
		v, ok := e.Metrics[o.Metric]
		if !ok {
			continue
		}
		if bestIdx < 0 || o.better(v, c.Entries[bestIdx].Metrics[o.Metric]) {
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return Entry{}, fmt.Errorf("catalog: no entry carries metric %q", o.Metric)
	}
	return c.Entries[bestIdx], nil
}

// Impact quantifies one parameter's effect on a metric: for each value the
// parameter takes, the mean of the metric across entries with that value.
type Impact struct {
	Parameter string             `json:"parameter"`
	Metric    string             `json:"metric"`
	MeanBy    map[string]float64 `json:"mean_by_value"`
	// Spread is max(mean)−min(mean): a crude sensitivity measure — zero
	// means the parameter does not move the metric at all.
	Spread float64 `json:"spread"`
}

// ParameterImpact computes the impact of a parameter on a metric — "the
// impact of different parameters on different output metrics" the catalog
// exists to describe.
func (c *Catalog) ParameterImpact(param, metric string) (Impact, error) {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, e := range c.Entries {
		val, hasParam := e.Params[param]
		m, hasMetric := e.Metrics[metric]
		if !hasParam || !hasMetric {
			continue
		}
		sums[val] += m
		counts[val]++
	}
	if len(sums) == 0 {
		return Impact{}, fmt.Errorf("catalog: no entries carry parameter %q and metric %q", param, metric)
	}
	imp := Impact{Parameter: param, Metric: metric, MeanBy: map[string]float64{}}
	min, max := math.Inf(1), math.Inf(-1)
	for val, sum := range sums {
		mean := sum / float64(counts[val])
		imp.MeanBy[val] = mean
		if mean < min {
			min = mean
		}
		if mean > max {
			max = mean
		}
	}
	imp.Spread = max - min
	return imp, nil
}

// RankParameters orders the given parameters by their impact spread on a
// metric, descending — which knob matters most.
func (c *Catalog) RankParameters(params []string, metric string) ([]Impact, error) {
	out := make([]Impact, 0, len(params))
	for _, p := range params {
		imp, err := c.ParameterImpact(p, metric)
		if err != nil {
			return nil, err
		}
		out = append(out, imp)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Spread > out[j].Spread })
	return out, nil
}

// ParetoFront returns the entries not dominated under the given objectives
// (an entry dominates another if it is at least as good on all objectives
// and strictly better on one). Entries missing any objective metric are
// excluded. The front is sorted by run id for determinism.
func (c *Catalog) ParetoFront(objectives []Objective) ([]Entry, error) {
	if len(objectives) == 0 {
		return nil, fmt.Errorf("catalog: pareto front needs objectives")
	}
	for _, o := range objectives {
		if err := o.Validate(); err != nil {
			return nil, err
		}
	}
	var candidates []Entry
	for _, e := range c.Entries {
		ok := true
		for _, o := range objectives {
			if _, has := e.Metrics[o.Metric]; !has {
				ok = false
				break
			}
		}
		if ok {
			candidates = append(candidates, e)
		}
	}
	dominates := func(a, b Entry) bool {
		strict := false
		for _, o := range objectives {
			av, bv := a.Metrics[o.Metric], b.Metrics[o.Metric]
			if o.better(bv, av) {
				return false
			}
			if o.better(av, bv) {
				strict = true
			}
		}
		return strict
	}
	var front []Entry
	for i, e := range candidates {
		dominated := false
		for j, other := range candidates {
			if i != j && dominates(other, e) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, e)
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].RunID < front[j].RunID })
	return front, nil
}

// Summary renders a human-readable digest: entry count, metrics, and the
// best entry per metric in each direction.
func (c *Catalog) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "catalog %s: %d entries\n", c.Campaign, c.Len())
	for _, m := range c.MetricNames() {
		lo, err1 := c.Best(Objective{Metric: m, Direction: Minimize})
		hi, err2 := c.Best(Objective{Metric: m, Direction: Maximize})
		if err1 == nil && err2 == nil {
			fmt.Fprintf(&b, "  %-20s min %.4g (%s)  max %.4g (%s)\n",
				m, lo.Metrics[m], lo.RunID, hi.Metrics[m], hi.RunID)
		}
	}
	return b.String()
}

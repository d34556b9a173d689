package monitor

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"

	"fairflow/internal/telemetry"
)

// Predicate is an alert rule's comparison direction.
type Predicate string

// Comparison directions.
const (
	Above Predicate = "above" // fire when value > threshold
	Below Predicate = "below" // fire when value < threshold
)

// Rule is a user-defined alert predicate over one metric. The metric's
// value is the sum across all label sets of the named counter, gauge, and
// histogram observation count. With Rate set, the rule fires on the
// metric's per-second rate of change instead of its level — measured
// between Health evaluations live, or over the journal's time span when
// evaluating a dump.
type Rule struct {
	Name      string    `json:"name"`
	Metric    string    `json:"metric"`
	Predicate Predicate `json:"predicate"`
	Threshold float64   `json:"threshold"`
	Rate      bool      `json:"rate,omitempty"`
}

// String renders the rule in ParseRule's grammar.
func (r Rule) String() string {
	metric := r.Metric
	if r.Rate {
		metric = "rate(" + metric + ")"
	}
	cmp := ">"
	if r.Predicate == Below {
		cmp = "<"
	}
	return fmt.Sprintf("%s: %s %s %g", r.Name, metric, cmp, r.Threshold)
}

// ParseRule parses the alert-rule grammar:
//
//	rule   := name ":" value cmp number
//	value  := metric | "rate(" metric ")"
//	cmp    := ">" | "<"
//
// Examples:
//
//	failure-burst: rate(savanna.runs_failed_total) > 0.05
//	queue-depth: hpcsim.jobs_queued > 100
//	starved: rate(savanna.runs_executed_total) < 0.001
func ParseRule(s string) (Rule, error) {
	name, expr, ok := strings.Cut(s, ":")
	if !ok {
		return Rule{}, fmt.Errorf("monitor: rule %q: missing name (want \"name: metric > threshold\")", s)
	}
	var r Rule
	r.Name = strings.TrimSpace(name)
	if r.Name == "" {
		return Rule{}, fmt.Errorf("monitor: rule %q: empty name", s)
	}

	expr = strings.TrimSpace(expr)
	var value, num string
	if lhs, rhs, ok := strings.Cut(expr, ">"); ok {
		r.Predicate, value, num = Above, lhs, rhs
	} else if lhs, rhs, ok := strings.Cut(expr, "<"); ok {
		r.Predicate, value, num = Below, lhs, rhs
	} else {
		return Rule{}, fmt.Errorf("monitor: rule %q: missing comparator (want > or <)", s)
	}

	r.Metric = strings.TrimSpace(value)
	if inner, ok := strings.CutPrefix(r.Metric, "rate("); ok {
		inner, ok = strings.CutSuffix(inner, ")")
		if !ok {
			return Rule{}, fmt.Errorf("monitor: rule %q: unclosed rate(", s)
		}
		r.Rate = true
		r.Metric = strings.TrimSpace(inner)
	}
	if r.Metric == "" {
		return Rule{}, fmt.Errorf("monitor: rule %q: empty metric", s)
	}
	if strings.IndexFunc(r.Metric, unicode.IsSpace) >= 0 {
		// "rate (x)" or "savanna runs" is a typo, and a metric name with
		// interior whitespace can never match a registered instrument —
		// reject it here instead of silently never firing.
		return Rule{}, fmt.Errorf("monitor: rule %q: metric %q contains whitespace", s, r.Metric)
	}

	th, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil {
		return Rule{}, fmt.Errorf("monitor: rule %q: bad threshold: %v", s, err)
	}
	if math.IsNaN(th) || math.IsInf(th, 0) {
		// ParseFloat happily accepts "NaN" and "+Inf", but a NaN threshold
		// makes every comparison false and an infinite one makes the rule
		// dead weight — both are configuration mistakes.
		return Rule{}, fmt.Errorf("monitor: rule %q: threshold must be a finite number, got %q", s, strings.TrimSpace(num))
	}
	r.Threshold = th
	return r, nil
}

// ParseRules parses a list of rule strings, failing on the first bad one.
func ParseRules(specs []string) ([]Rule, error) {
	rules := make([]Rule, 0, len(specs))
	for _, s := range specs {
		r, err := ParseRule(s)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// RetryStormRule is the canned alert for a retry storm: the resilience
// layer's retry counter climbing faster than threshold per second means
// attempts are churning against a fault retrying cannot fix — a shared
// filesystem outage, a dead license server — and the backoff budget is
// being spent on the environment, not the science. Equivalent to the
// rule string "retry-storm: rate(savanna.retries_total) > <threshold>".
func RetryStormRule(threshold float64) Rule {
	return Rule{
		Name:      "retry-storm",
		Metric:    "savanna.retries_total",
		Predicate: Above,
		Threshold: threshold,
		Rate:      true,
	}
}

// DeadWorkerRule is the canned alert for the distributed plane: the
// coordinator's remote.workers_dead gauge counts workers whose lease
// expired without a clean leave and whom no later join, under any name, has
// replaced. Any value
// above zero means the campaign is running degraded — the lost runs
// re-dispatch, but capacity is gone until a replacement connects (which
// decrements the gauge and resolves the alert). Equivalent to the rule
// string "dead-workers: remote.workers_dead > 0".
func DeadWorkerRule() Rule {
	return Rule{
		Name:      "dead-workers",
		Metric:    "remote.workers_dead",
		Predicate: Above,
		Threshold: 0,
	}
}

// CoordinatorFlapRule is the canned alert for coordinator churn: the
// remote.coordinator_takeovers_total counter increments once per fenced
// handover, so its rate climbing past threshold per second means the
// coordinator role is flapping — successive incarnations keep dying (OOM
// loop, bad host, two standbys fighting over a slow filesystem) and the
// campaign spends its time replaying journals instead of dispatching
// runs. A single planned failover never fires this; a crash loop does.
// Equivalent to the rule string
// "coordinator-flap: rate(remote.coordinator_takeovers_total) > <threshold>".
func CoordinatorFlapRule(threshold float64) Rule {
	return Rule{
		Name:      "coordinator-flap",
		Metric:    "remote.coordinator_takeovers_total",
		Predicate: Above,
		Threshold: threshold,
		Rate:      true,
	}
}

// exceeded reports whether value trips the rule's threshold.
func (r Rule) exceeded(value float64) bool {
	if r.Predicate == Below {
		return value < r.Threshold
	}
	return value > r.Threshold
}

// metricValue sums the named metric across a snapshot: every counter and
// gauge with that name (any label set) plus histogram observation counts.
func metricValue(snap telemetry.MetricsSnapshot, name string) (float64, bool) {
	var v float64
	found := false
	for _, c := range snap.Counters {
		if c.Name == name {
			v += float64(c.Value)
			found = true
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == name {
			v += g.Value
			found = true
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == name {
			v += float64(h.Count)
			found = true
		}
	}
	return v, found
}

// evalRuleLocked computes a rule's current value; callers hold m.mu. The
// bool result is false when the value cannot be computed yet (metric
// absent, or a rate rule's first live evaluation) — the rule then cannot
// fire, rather than firing on a meaningless zero.
func (m *Monitor) evalRuleLocked(r Rule, snap telemetry.MetricsSnapshot, now time.Time) (float64, bool) {
	level, found := metricValue(snap, r.Metric)
	if !found {
		return 0, false
	}
	if !r.Rate {
		return level, true
	}
	if m.snapOverride != nil {
		// Dump mode: average rate over the journal's time span.
		if m.dumpRateSpan <= 0 {
			return 0, false
		}
		return level / m.dumpRateSpan, true
	}
	if m.cfg.History != nil {
		// A history ring gives a true sliding-window rate: the delta between
		// the window's endpoints, not whatever happened to elapse between two
		// Health calls. Fall through to the between-eval estimate only while
		// the ring has too few samples to answer.
		if rate, ok := m.cfg.History.RateOver(r.Metric, rateWindow); ok {
			return rate, true
		}
	}
	prev := m.rateLast[r.Metric]
	m.rateLast[r.Metric] = level
	if !m.rateHasBase {
		return 0, false
	}
	dt := now.Sub(m.rateLastAt).Seconds()
	if dt <= 0 {
		return 0, false
	}
	return (level - prev) / dt, true
}

// Package history keeps a bounded in-memory time series of metric registry
// snapshots — the "what was the rate over the last 30 seconds?" substrate
// that a single point-in-time snapshot cannot answer. A Ring samples a
// telemetry.Registry periodically (wall clock via Start, or explicitly via
// Sample, in virtual time with SetClock) and serves windowed queries:
// true sliding-window rates for the monitor's rate() rules and a /series.json
// debug endpoint for plotting a campaign's metrics over time.
package history

import (
	"sync"
	"time"

	"fairflow/internal/telemetry"
)

// Sample is one timestamped registry snapshot.
type Sample struct {
	Time    time.Time                 `json:"time"`
	Metrics telemetry.MetricsSnapshot `json:"metrics"`
}

// Ring is a fixed-capacity ring of registry samples: the newest capacity
// samples win, older ones fall off. All methods are safe for concurrent use,
// and a nil *Ring is a no-op sampler that answers no queries — the same
// nil-receiver discipline as the rest of the telemetry layer.
type Ring struct {
	reg *telemetry.Registry

	mu      sync.Mutex
	clock   telemetry.Clock
	samples []Sample // ring storage, len == capacity once full
	next    int      // ring cursor: index the next sample lands in
	taken   uint64   // total samples ever taken (wraparound evidence)
}

// DefaultCapacity bounds a ring built with capacity ≤ 0. At the monitor's
// default 2 s cadence it holds 20 minutes of history.
const DefaultCapacity = 600

// New returns a ring sampling reg, retaining the newest capacity samples
// (DefaultCapacity when capacity ≤ 0).
func New(reg *telemetry.Registry, capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{reg: reg, samples: make([]Sample, 0, capacity)}
}

// SetClock replaces the ring's time source (nil restores the wall clock) so
// samples are stamped in virtual time. Set it before sampling starts.
func (r *Ring) SetClock(c telemetry.Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

func (r *Ring) now() time.Time {
	if r.clock != nil {
		return r.clock.Now()
	}
	return time.Now()
}

// Sample takes one snapshot now and appends it to the ring.
func (r *Ring) Sample() {
	if r == nil || r.reg == nil {
		return
	}
	snap := r.reg.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordLocked(Sample{Time: r.now(), Metrics: snap})
}

func (r *Ring) recordLocked(s Sample) {
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, s)
	} else {
		r.samples[r.next] = s
	}
	r.next = (r.next + 1) % cap(r.samples)
	r.taken++
}

// Start launches a wall-clock sampler goroutine at the given interval and
// returns its stop function (idempotent).
func (r *Ring) Start(interval time.Duration) (stop func()) {
	if r == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				r.Sample()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Samples returns the retained samples oldest-first.
func (r *Ring) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, 0, len(r.samples))
	if len(r.samples) == cap(r.samples) {
		out = append(out, r.samples[r.next:]...)
	}
	out = append(out, r.samples[:r.next]...)
	if len(r.samples) < cap(r.samples) {
		// Ring not yet full: storage [0, next) is already oldest-first and
		// the wrapped prefix above was empty.
		return out[:len(r.samples)]
	}
	return out
}

// Taken reports how many samples were ever recorded, including ones that
// have since fallen off the ring.
func (r *Ring) Taken() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.taken
}

// RateOver computes metric's per-second rate over the trailing window: the
// value delta between the newest sample and the oldest sample still inside
// the window, divided by their time spread. ok is false when fewer than two
// samples land in the window (no rate is computable) — callers fall back to
// whatever coarser estimate they have. A counter reset (negative delta)
// reports as a zero rate rather than a negative one.
func (r *Ring) RateOver(metric string, window time.Duration) (perSec float64, ok bool) {
	if r == nil || window <= 0 {
		return 0, false
	}
	samples := r.Samples()
	if len(samples) < 2 {
		return 0, false
	}
	newest := samples[len(samples)-1]
	cutoff := newest.Time.Add(-window)
	oldest := newest
	for i := len(samples) - 2; i >= 0; i-- {
		if samples[i].Time.Before(cutoff) {
			break
		}
		oldest = samples[i]
	}
	dt := newest.Time.Sub(oldest.Time).Seconds()
	if dt <= 0 {
		return 0, false
	}
	delta := MetricValue(newest.Metrics, metric) - MetricValue(oldest.Metrics, metric)
	if delta < 0 {
		return 0, true
	}
	return delta / dt, true
}

// MetricValue reduces one named metric in a snapshot to a single number,
// summing across label sets: counter values, gauge values, and histogram
// observation counts (so rate(some_histogram) is events per second). Zero
// when the metric is absent.
func MetricValue(snap telemetry.MetricsSnapshot, name string) float64 {
	var v float64
	for _, c := range snap.Counters {
		if c.Name == name {
			v += float64(c.Value)
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == name {
			v += g.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == name {
			v += float64(h.Count)
		}
	}
	return v
}

package savanna

import "context"

// ResourceUsage is what one run's process tree actually consumed — the cost
// half of performance forensics. ProcessExecutor fills it from the kernel's
// rusage accounting on every exit path (success, failure, deadline kill),
// topped up by live /proc peak-RSS sampling on platforms that support it,
// so a run killed mid-flight still reports what it cost before dying.
type ResourceUsage struct {
	// CPUUserSeconds and CPUSystemSeconds are the process tree's consumed
	// CPU time (ru_utime / ru_stime), which can exceed wall time for
	// multi-threaded children and undershoot it for sleepers.
	CPUUserSeconds   float64 `json:"cpu_user_seconds,omitempty"`
	CPUSystemSeconds float64 `json:"cpu_system_seconds,omitempty"`
	// MaxRSSBytes is the peak resident set size in bytes (ru_maxrss,
	// normalised from the platform's native unit), merged with the live
	// sampler's peak when that saw a higher watermark.
	MaxRSSBytes int64 `json:"max_rss_bytes,omitempty"`
}

// CPUSeconds is the total CPU time, user plus system.
func (u ResourceUsage) CPUSeconds() float64 {
	return u.CPUUserSeconds + u.CPUSystemSeconds
}

// Zero reports whether nothing was measured (non-unix platform, or the
// process never started).
func (u ResourceUsage) Zero() bool {
	return u.CPUUserSeconds == 0 && u.CPUSystemSeconds == 0 && u.MaxRSSBytes == 0
}

// Accumulate folds another attempt's usage into u: CPU time sums across
// attempts (every attempt's cycles were really spent), peak RSS takes the
// maximum (attempts do not run concurrently).
func (u *ResourceUsage) Accumulate(v ResourceUsage) {
	u.CPUUserSeconds += v.CPUUserSeconds
	u.CPUSystemSeconds += v.CPUSystemSeconds
	u.MaxRSSBytes = max(u.MaxRSSBytes, v.MaxRSSBytes)
}

// RSSBuckets are the shared histogram bounds for peak-RSS metrics, in bytes:
// 16 MiB doubling-ish up to 16 GiB, matching the spread between a trivial
// shell run and a memory-hungry simulation rank.
var RSSBuckets = []float64{16 << 20, 64 << 20, 256 << 20, 1 << 30, 4 << 30, 16 << 30}

// resourceSinkKey is the context key carrying a per-run resource sink.
type resourceSinkKey struct{}

// WithResourceSink returns a context carrying sink. Executors that can
// measure consumption (ProcessExecutor) Accumulate into it per attempt; the
// engines read it back after the run settles. The sink must not be shared
// between concurrently executing runs — each run gets its own.
func WithResourceSink(ctx context.Context, sink *ResourceUsage) context.Context {
	return context.WithValue(ctx, resourceSinkKey{}, sink)
}

// ResourceSinkFrom returns the context's resource sink, nil when none.
func ResourceSinkFrom(ctx context.Context) *ResourceUsage {
	sink, _ := ctx.Value(resourceSinkKey{}).(*ResourceUsage)
	return sink
}

package telemetry

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies timestamps to a Tracer. The indirection exists so that
// simulated executions (internal/hpcsim) can trace in virtual time: a
// campaign simulated in milliseconds still renders with its true simulated
// durations.
type Clock interface {
	Now() time.Time
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() time.Time

// Now implements Clock.
func (f ClockFunc) Now() time.Time { return f() }

// Attr is one key/value span attribute. Values are strings; use the helper
// constructors for other types.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Float builds a float attribute.
func Float(k string, v float64) Attr {
	return Attr{Key: k, Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

// SpanData is the immutable record of a finished span.
type SpanData struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"` // 0 = root
	// Remote names a parent span in another process, as a traceparent
	// string (see SpanContext). It is set by StartRemote and consumed by
	// the coordinator's merge step, which resolves it to a local Parent id;
	// exporters ignore it.
	Remote string    `json:"remote,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attrs  []Attr    `json:"attrs,omitempty"`
}

// Duration returns the span's wall (or virtual) duration.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// Attr returns the value of the named attribute ("" when absent).
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Span is an in-flight traced operation. All methods are safe on a nil
// receiver, so callers can thread spans unconditionally and pay nothing when
// tracing is off.
type Span struct {
	tracer *Tracer
	mu     sync.Mutex
	data   SpanData
	ended  bool
}

// Annotate appends attributes to the span. After End it is a no-op: the
// record was already filed, so a late append would mutate only a local copy
// and silently vanish from every export.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Attrs = append(s.data.Attrs, attrs...)
	}
	s.mu.Unlock()
}

// End finishes the span, stamping its end time from the tracer's clock and
// appending any final attributes. Ending twice is a no-op.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Attrs = append(s.data.Attrs, attrs...)
	s.data.End = s.tracer.Now()
	data := s.data
	s.mu.Unlock()
	s.tracer.record(data)
}

// ID returns the span's trace-local id (0 on a nil receiver).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.data.ID
}

// spanKey is the context key for span propagation.
type spanKey struct{}

// ContextWithSpan returns a context carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's span, nil when none (or when ctx is
// nil).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// DefaultSpanCapacity bounds a tracer's finished-span buffer; older spans
// beyond it are dropped (counted, never silently).
const DefaultSpanCapacity = 65536

// Tracer records spans into a bounded in-memory buffer. A nil *Tracer is a
// valid "tracing off" tracer: Start returns a nil span and the context
// unchanged.
type Tracer struct {
	clock Clock
	cap   int

	nextID  atomic.Int64
	mu      sync.Mutex
	traceID TraceID
	spans   []SpanData
	open    int64
	dropped int64
}

// NewTracer returns a tracer using the wall clock and DefaultSpanCapacity.
func NewTracer() *Tracer {
	return &Tracer{cap: DefaultSpanCapacity}
}

// SetClock replaces the tracer's time source (nil restores the wall clock).
// Set it before tracing starts; spans in flight keep their original start
// times.
func (t *Tracer) SetClock(c Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = c
	t.mu.Unlock()
}

// SetCapacity bounds the finished-span buffer (values < 1 restore the
// default).
func (t *Tracer) SetCapacity(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = DefaultSpanCapacity
	}
	t.mu.Lock()
	t.cap = n
	t.mu.Unlock()
}

// Now returns the tracer's current time. It is nil-safe — a nil tracer (or
// one without an injected clock) reads the wall clock — so callers can use
// it for timestamps that must agree with span times.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Now()
	}
	t.mu.Lock()
	c := t.clock
	t.mu.Unlock()
	if c == nil {
		return time.Now()
	}
	return c.Now()
}

// Start begins a span as a child of the context's current span (a root span
// when the context has none) and returns a context carrying the new span.
// On a nil tracer it returns (ctx, nil) untouched. The span keeps a copy of
// attrs, so on a nil tracer the argument list costs no allocation.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{tracer: t}
	s.data = SpanData{
		ID:     t.nextID.Add(1),
		Parent: SpanFromContext(ctx).ID(),
		Name:   name,
		Start:  t.Now(),
		Attrs:  slices.Clone(attrs),
	}
	t.mu.Lock()
	t.open++
	t.mu.Unlock()
	return ContextWithSpan(ctx, s), s
}

// record files a finished span into the bounded buffer.
func (t *Tracer) record(data SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open--
	if len(t.spans) >= t.cap {
		t.dropped++
	} else {
		t.spans = append(t.spans, data)
	}
	t.mu.Unlock()
}

// Snapshot copies the finished spans recorded so far.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanData(nil), t.spans...)
	t.mu.Unlock()
	return out
}

// Open reports spans started but not yet ended.
func (t *Tracer) Open() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// Dropped reports finished spans discarded because the buffer was full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

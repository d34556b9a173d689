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
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"` // 0 = root
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

// inlineAttrs is how many attributes a span holds without a second
// allocation: a run's span on the per-run path carries four, more only for
// a failure or a measured resource usage.
const inlineAttrs = 4

// Span is an in-flight traced operation. All methods are safe on a nil
// receiver, so callers can thread spans unconditionally and pay nothing when
// tracing is off.
//
// A span is one allocation: its first attributes live in inline, and the
// context Start returns is ctx, a field of the span itself.
type Span struct {
	tracer *Tracer
	ctx    spanCtx
	mu     sync.Mutex
	data   SpanData
	ended  bool
	inline [inlineAttrs]Attr
}

// spanCtx is the context Start returns: its parent context plus the span.
type spanCtx struct {
	context.Context
	span *Span
}

// Value answers the span key itself and defers every other key to the
// parent.
func (c *spanCtx) Value(key any) any {
	if _, ok := key.(spanKey); ok {
		return c.span
	}
	return c.Context.Value(key)
}

// add appends attributes, filling the inline array first. Callers hold s.mu
// or own s exclusively.
func (s *Span) add(attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = s.inline[:0]
	}
	s.data.Attrs = append(s.data.Attrs, attrs...)
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
		s.add(attrs)
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
	s.add(attrs)
	// Clipped, so a reader's append copies instead of writing into inline.
	s.data.Attrs = slices.Clip(s.data.Attrs)
	s.data.End = s.tracer.Now()
	s.mu.Unlock()
	s.tracer.file(&s.data)
	s.tracer.open.Add(-1)
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

// SpanFromContext returns the context's span, nil when none (or when ctx is
// nil).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	if c, ok := ctx.(*spanCtx); ok {
		return c.span
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// DefaultSpanCapacity bounds a tracer's finished-span buffer; older spans
// beyond it are dropped (counted, never silently).
const DefaultSpanCapacity = 65536

// spanChunk is the size of one block of the finished-span buffer. The
// buffer grows a block at a time, so filed spans are never copied again.
const spanChunk = 256

// Tracer records spans into a bounded in-memory buffer. A nil *Tracer is a
// valid "tracing off" tracer: Start returns a nil span and the context
// unchanged.
//
// Starting a span takes no lock; ending one takes mu once, to file it.
type Tracer struct {
	clock   atomic.Pointer[Clock]
	traceID atomic.Pointer[TraceID]
	nextID  atomic.Int64
	open    atomic.Int64

	mu      sync.Mutex
	cap     int
	chunks  [][]SpanData // spanChunk spans each; only the last has room
	n       int          // spans filed
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
	if c == nil {
		t.clock.Store(nil)
	} else {
		t.clock.Store(&c)
	}
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
	if c := t.clock.Load(); c != nil {
		return (*c).Now()
	}
	return time.Now()
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
	s.ctx = spanCtx{Context: ctx, span: s}
	s.data = SpanData{
		ID:     t.nextID.Add(1),
		Parent: SpanFromContext(ctx).ID(),
		Name:   name,
		Start:  t.Now(),
	}
	s.add(attrs)
	t.open.Add(1)
	return &s.ctx, s
}

// file copies a finished span into the bounded buffer.
func (t *Tracer) file(d *SpanData) {
	t.mu.Lock()
	if t.n >= t.cap {
		t.dropped++
	} else {
		if t.n%spanChunk == 0 {
			t.chunks = append(t.chunks, make([]SpanData, spanChunk))
		}
		t.chunks[t.n/spanChunk][t.n%spanChunk] = *d
		t.n++
	}
	t.mu.Unlock()
}

// spansLocked copies the filed spans [from, to). Callers hold t.mu.
func (t *Tracer) spansLocked(from, to int) []SpanData {
	if from >= to {
		return nil
	}
	out := make([]SpanData, 0, to-from)
	for i := from; i < to; {
		off := i % spanChunk
		k := min(to-i, spanChunk-off)
		out = append(out, t.chunks[i/spanChunk][off:off+k]...)
		i += k
	}
	return out
}

// Snapshot copies the finished spans recorded so far.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansLocked(0, t.n)
}

// Open reports spans started but not yet ended.
func (t *Tracer) Open() int64 {
	if t == nil {
		return 0
	}
	return t.open.Load()
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

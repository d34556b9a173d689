package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"time"
)

// TraceID is the 128-bit identifier of one tracer's trace. It travels in
// SpanContext, so a process a run starts can name the span it runs under.
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := crand.Read(id[:]); err != nil || id.IsZero() {
		// crypto/rand does not fail in practice; keep the invariant anyway.
		binary.BigEndian.PutUint64(id[8:], uint64(time.Now().UnixNano())|1)
	}
	return id
}

// SpanContext is the wire-encodable identity of one span: enough for
// another process (a run's executable, handed it as TRACEPARENT) to parent
// its own spans under this one. The zero value is invalid and means "no
// parent".
type SpanContext struct {
	Trace TraceID `json:"trace"`
	Span  int64   `json:"span"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && c.Span != 0 }

// String encodes the context in the W3C traceparent layout —
// "00-<32 hex trace id>-<16 hex span id>-01" — or "" when invalid. The
// fixed "01" flag marks the span sampled; this tracer has no unsampled
// spans.
func (c SpanContext) String() string {
	if !c.Valid() {
		return ""
	}
	// Built in place: this runs once per executed process.
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], c.Trace[:])
	b[35] = '-'
	var span [8]byte
	binary.BigEndian.PutUint64(span[:], uint64(c.Span))
	hex.Encode(b[36:52], span[:])
	copy(b[52:], "-01")
	return string(b[:])
}

// Context returns the span's wire identity (invalid on a nil span, or when
// the owning tracer has no trace id yet and cannot mint one).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.tracer.TraceID(), Span: s.ID()}
}

// WithRemoteSpanContext returns ctx with sc as its current span: a span that
// another process's trace holds, which a process started under ctx names as
// its parent. A span this process starts under ctx has no local parent.
func WithRemoteSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

// SpanContextFromContext returns the wire identity of ctx's current span —
// one of this process's, or one set by WithRemoteSpanContext — or the
// invalid zero value when there is none.
func SpanContextFromContext(ctx context.Context) SpanContext {
	switch v := ctx.Value(spanKey{}).(type) {
	case *Span:
		return v.Context()
	case SpanContext:
		return v
	}
	return SpanContext{}
}

// NewSpanID takes the tracer's next span id without starting a span: the id
// of a span another process files from this one's report (a remote worker
// numbers the span its coordinator files for a run with it). A nil tracer
// returns 0.
func (t *Tracer) NewSpanID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// TraceID returns the tracer's trace id, minting a random one on first use.
// A nil tracer reports the zero id.
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	if id := t.traceID.Load(); id != nil {
		return *id
	}
	id := NewTraceID()
	t.traceID.CompareAndSwap(nil, &id)
	return *t.traceID.Load()
}

// Ingest files an already-finished span record produced elsewhere —
// typically a worker span whose ids and times the coordinator has remapped.
// Unlike End it touches no open count; buffer bounds and the drop
// counter apply as usual. Records with id 0 are dropped (they cannot be
// referenced and would collide as roots).
func (t *Tracer) Ingest(data SpanData) {
	if t == nil || data.ID == 0 {
		return
	}
	t.file(&data)
}

// SnapshotSince copies at most limit finished spans (limit < 1: all of them)
// starting at buffer index n — the incremental form of Snapshot for shippers
// that drain the buffer in batches. The buffer is append-only (the cap drops
// new spans, it never evicts old ones), so indices are stable cursors.
func (t *Tracer) SnapshotSince(n, limit int) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n = max(n, 0)
	end := t.n
	if limit > 0 && end-n > limit {
		end = n + limit
	}
	return t.spansLocked(n, end)
}

// Finished reports how many finished spans the buffer holds: one past the
// last index SnapshotSince can return.
func (t *Tracer) Finished() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

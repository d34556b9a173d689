package telemetry

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"time"
)

// TraceID is the 128-bit identifier shared by every span of one campaign,
// no matter which process recorded it. It is the unit of trace identity for
// the distributed plane: a coordinator mints one, workers echo it back, and
// the merge step uses it to tell "this span belongs to my campaign" from a
// fragment of some other trace.
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

// SpanContext is the wire-encodable identity of one span: enough for a
// process on the far side of a socket to parent its own spans under this
// one. The zero value is invalid and means "no parent".
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
	// Built in place: this runs once per dispatched run, under the
	// coordinator's lock.
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

// ParseSpanContext decodes a traceparent-style string produced by
// SpanContext.String. Unknown versions, malformed fields, and all-zero ids
// are errors — a garbled parent must not silently re-root a span.
func ParseSpanContext(s string) (SpanContext, error) {
	// "00-" + 32 + "-" + 16 + "-01" = 55 bytes.
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, fmt.Errorf("telemetry: malformed span context %q", s)
	}
	if s[:2] != "00" {
		return SpanContext{}, fmt.Errorf("telemetry: unsupported span context version %q", s[:2])
	}
	var c SpanContext
	if _, err := hex.Decode(c.Trace[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: bad trace id in %q", s)
	}
	sp, err := strconv.ParseUint(s[36:52], 16, 64)
	if err != nil {
		return SpanContext{}, fmt.Errorf("telemetry: bad span id in %q", s)
	}
	c.Span = int64(sp)
	if !c.Valid() {
		return SpanContext{}, fmt.Errorf("telemetry: zero span context %q", s)
	}
	return c, nil
}

// Context returns the span's wire identity (invalid on a nil span, or when
// the owning tracer has no trace id yet and cannot mint one).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.tracer.TraceID(), Span: s.ID()}
}

// TraceID returns the tracer's trace id, minting a random one on first use.
// A nil tracer reports the zero id.
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.traceID.IsZero() {
		t.traceID = NewTraceID()
	}
	return t.traceID
}

// StartRemote begins a span whose parent lives in another process. The
// local Parent stays 0 (no such span exists here); the parent's wire
// identity is kept in SpanData.Remote for the merge step to resolve. An
// invalid parent degrades to a plain Start — a worker with no dispatch
// context still traces, it just roots locally.
func (t *Tracer) StartRemote(ctx context.Context, parent SpanContext, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if !parent.Valid() {
		return t.Start(ctx, name, attrs...)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{tracer: t}
	s.data = SpanData{
		ID:     t.nextID.Add(1),
		Remote: parent.String(),
		Name:   name,
		Start:  t.Now(),
		Attrs:  slices.Clone(attrs),
	}
	t.mu.Lock()
	t.open++
	t.mu.Unlock()
	return ContextWithSpan(ctx, s), s
}

// AllocID reserves a fresh span id without starting a span. The merge step
// uses it to re-key foreign spans into this tracer's id space (0 on a nil
// tracer).
func (t *Tracer) AllocID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Ingest files an already-finished span record produced elsewhere —
// typically a worker span whose ids and times the coordinator has remapped.
// Unlike record it touches no open count; buffer bounds and the drop
// counter apply as usual. Records with id 0 are dropped (they cannot be
// referenced and would collide as roots).
func (t *Tracer) Ingest(data SpanData) {
	if t == nil || data.ID == 0 {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= t.cap {
		t.dropped++
	} else {
		t.spans = append(t.spans, data)
	}
	t.mu.Unlock()
}

// SnapshotSince copies at most max finished spans (max < 1: all of them)
// starting at buffer index n — the incremental form of Snapshot for shippers
// that drain the buffer in batches. The buffer is append-only (the cap drops
// new spans, it never evicts old ones), so indices are stable cursors.
func (t *Tracer) SnapshotSince(n, max int) []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(t.spans) {
		return nil
	}
	end := len(t.spans)
	if max > 0 && end-n > max {
		end = n + max
	}
	return append([]SpanData(nil), t.spans[n:end]...)
}

// Finished reports how many finished spans the buffer holds: one past the
// last index SnapshotSince can return.
func (t *Tracer) Finished() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

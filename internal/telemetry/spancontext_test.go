package telemetry

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestSpanContextRoundTrip(t *testing.T) {
	tr := NewTracer()
	_, s := tr.Start(context.Background(), "op")
	sc := s.Context()
	if !sc.Valid() {
		t.Fatalf("context of live span invalid: %+v", sc)
	}
	enc := sc.String()
	if len(enc) != 55 || !strings.HasPrefix(enc, "00-") || !strings.HasSuffix(enc, "-01") {
		t.Fatalf("encoding %q not traceparent-shaped", enc)
	}
	if sc.Trace != tr.TraceID() || sc.Span != s.ID() {
		t.Fatalf("context %+v does not name trace %s span %d", sc, tr.TraceID(), s.ID())
	}
	if want := fmt.Sprintf("00-%s-%016x-01", tr.TraceID(), uint64(s.ID())); enc != want {
		t.Fatalf("encoding %q, want %q", enc, want)
	}
	// The zero context encodes to "" and a nil span's context is invalid.
	if got := (SpanContext{}).String(); got != "" {
		t.Errorf("zero context encodes to %q, want empty", got)
	}
	if (*Span)(nil).Context().Valid() {
		t.Error("nil span's context is valid")
	}
}

// TestSpanContextStringRandom pins the hand-built encoding against the
// format it replaced, over random contexts (negative span ids included),
// and its cost: the returned string is the one allocation.
func TestSpanContextStringRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		var c SpanContext
		rng.Read(c.Trace[:])
		c.Span = int64(rng.Uint64())
		if !c.Valid() {
			continue
		}
		enc := c.String()
		if want := fmt.Sprintf("00-%s-%016x-01", c.Trace, uint64(c.Span)); enc != want {
			t.Fatalf("String() = %q, want %q", enc, want)
		}
	}
	c := SpanContext{Trace: NewTraceID(), Span: 42}
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = c.String() }); n > 1 {
		t.Errorf("String() allocates %.0f times, want at most 1", n)
	}
	_ = sink
}

func TestTracerTraceIDStableAndSettable(t *testing.T) {
	tr := NewTracer()
	id := tr.TraceID()
	if id.IsZero() {
		t.Fatal("TraceID minted zero")
	}
	if again := tr.TraceID(); again != id {
		t.Fatalf("TraceID not stable: %s then %s", id, again)
	}
	if (*Tracer)(nil).TraceID() != (TraceID{}) {
		t.Fatal("nil tracer minted a trace id")
	}
}

func TestIngestAllocIDAndSnapshotSince(t *testing.T) {
	tr := NewTracer()
	tr.SetCapacity(3)
	id := tr.AllocID()
	if id == 0 {
		t.Fatal("AllocID returned 0")
	}
	tr.Ingest(SpanData{ID: id, Name: "foreign"})
	tr.Ingest(SpanData{ID: 0, Name: "dropped"}) // id 0 never enters the buffer
	if got := tr.Snapshot(); len(got) != 1 || got[0].Name != "foreign" {
		t.Fatalf("snapshot = %+v", got)
	}
	if tr.Open() != 0 {
		t.Fatal("Ingest touched the open count")
	}

	tr.Ingest(SpanData{ID: tr.AllocID(), Name: "b"})
	tr.Ingest(SpanData{ID: tr.AllocID(), Name: "c"})
	tr.Ingest(SpanData{ID: tr.AllocID(), Name: "over"}) // beyond cap: dropped, counted
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}

	if got := tr.SnapshotSince(1, 0); len(got) != 2 || got[0].Name != "b" {
		t.Fatalf("SnapshotSince(1, 0) = %+v", got)
	}
	if got := tr.SnapshotSince(1, 1); len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("SnapshotSince(1, 1) = %+v, want just b", got)
	}
	if got := tr.SnapshotSince(1, 5); len(got) != 2 {
		t.Fatalf("SnapshotSince(1, 5) = %d spans, want the 2 there are", len(got))
	}
	if got := tr.SnapshotSince(3, 0); got != nil {
		t.Fatalf("SnapshotSince(len, 0) = %+v, want nil", got)
	}
	if got := tr.SnapshotSince(-5, 0); len(got) != 3 {
		t.Fatalf("SnapshotSince(-5, 0) = %d spans, want all 3", len(got))
	}
	if tr.Finished() != 3 {
		t.Fatalf("Finished() = %d, want 3", tr.Finished())
	}
	var nilT *Tracer
	if nilT.AllocID() != 0 || nilT.SnapshotSince(0, 0) != nil || nilT.Finished() != 0 {
		t.Fatal("nil tracer not inert")
	}
	nilT.Ingest(SpanData{ID: 1})
}

// TestAnnotateAfterEndIsNoop pins the satellite fix: attributes appended
// after End must not appear anywhere — before the fix they mutated a local
// copy and silently vanished from every export; now the append itself is
// skipped.
func TestAnnotateAfterEndIsNoop(t *testing.T) {
	tr := NewTracer()
	_, s := tr.Start(context.Background(), "op")
	s.Annotate(String("before", "yes"))
	s.End()
	s.Annotate(String("after", "lost"))
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Attr("before") != "yes" {
		t.Fatal("pre-End annotation missing")
	}
	if spans[0].Attr("after") != "" {
		t.Fatal("post-End annotation leaked into the record")
	}
	for _, a := range s.data.Attrs {
		if a.Key == "after" {
			t.Fatal("post-End annotation mutated the span's local copy")
		}
	}
}

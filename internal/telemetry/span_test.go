package telemetry

import (
	"context"
	"testing"
	"time"
)

func TestSpanHierarchy(t *testing.T) {
	tr := NewTracer()
	ctx, campaign := tr.Start(context.Background(), "campaign", String("campaign", "c1"))
	ctx2, run := tr.Start(ctx, "run")
	_, task := tr.Start(ctx2, "task")
	task.End(Int("rows", 42))
	run.End()
	campaign.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanData{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["campaign"].Parent != 0 {
		t.Fatal("campaign should be a root span")
	}
	if byName["run"].Parent != byName["campaign"].ID {
		t.Fatal("run should be a child of campaign")
	}
	if byName["task"].Parent != byName["run"].ID {
		t.Fatal("task should be a child of run")
	}
	if byName["task"].Attr("rows") != "42" {
		t.Fatalf("task rows attr = %q, want 42", byName["task"].Attr("rows"))
	}
	if byName["campaign"].Attr("campaign") != "c1" {
		t.Fatal("campaign attr lost")
	}
	if tr.Open() != 0 {
		t.Fatalf("open = %d, want 0", tr.Open())
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.Start(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer must return a nil span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer must not install a span in the context")
	}
	// All nil-receiver calls must be no-ops.
	sp.Annotate(String("k", "v"))
	sp.End()
	if sp.ID() != 0 {
		t.Fatal("nil span id should be 0")
	}
	if tr.Snapshot() != nil || tr.Open() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer state should be empty")
	}
	if tr.Now().IsZero() {
		t.Fatal("nil tracer Now() must fall back to the wall clock")
	}
}

func TestDoubleEndIsNoop(t *testing.T) {
	tr := NewTracer()
	_, sp := tr.Start(context.Background(), "once")
	sp.End()
	sp.End()
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
}

func TestInjectedClock(t *testing.T) {
	tr := NewTracer()
	virtual := time.Unix(0, 0)
	tr.SetClock(ClockFunc(func() time.Time { return virtual }))
	_, sp := tr.Start(context.Background(), "sim")
	virtual = virtual.Add(90 * time.Second)
	sp.End()
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if d := spans[0].Duration(); d != 90*time.Second {
		t.Fatalf("virtual duration = %v, want 90s", d)
	}
	if !tr.Now().Equal(virtual) {
		t.Fatal("Tracer.Now must read the injected clock")
	}
}

func TestSpanBufferCap(t *testing.T) {
	tr := NewTracer()
	tr.SetCapacity(4)
	for i := 0; i < 10; i++ {
		_, sp := tr.Start(context.Background(), "s")
		sp.End()
	}
	if got := len(tr.Snapshot()); got != 4 {
		t.Fatalf("buffer holds %d spans, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

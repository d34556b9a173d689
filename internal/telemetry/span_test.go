package telemetry

import (
	"context"
	"strconv"
	"sync"
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

// TestSpanStartEndAllocs pins a span's cost: with at most four attributes
// between Start and End, the span, its attributes and the context Start
// returns are one allocation, and filing it into a chunk already there
// allocates nothing more.
func TestSpanStartEndAllocs(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Start(context.Background(), "root")
	defer root.End()
	run := func() {
		_, sp := tr.Start(ctx, "run", String("run", "g/s/run-00042"), String("worker", "w0"))
		sp.End(String("status", "succeeded"), String("cached", "false"))
	}
	run() // the first filed span allocates the buffer's first chunk
	if n := testing.AllocsPerRun(100, run); n != 1 {
		t.Fatalf("Start + End with 4 attributes = %.0f allocations, want 1", n)
	}
}

// TestSpanContextValues checks the context Start returns: it answers the
// span, defers other keys to its parent, and cancels with it.
func TestSpanContextValues(t *testing.T) {
	type key struct{}
	tr := NewTracer()
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	ctx, sp := tr.Start(parent, "op")
	if SpanFromContext(ctx) != sp || ctx.Value(key{}) != "v" {
		t.Fatal("span context lost the span or its parent's value")
	}
	child, stop := context.WithCancel(ctx)
	defer stop()
	if SpanFromContext(child) != sp {
		t.Fatal("a context derived from the span context lost the span")
	}
	cancel()
	<-child.Done()
	if ctx.Err() == nil {
		t.Fatal("span context did not see its parent's cancellation")
	}
	sp.End()
}

// TestSpanAttrsClippedAtEnd: a reader appending to a filed span's attributes
// must get a copy, never write into the span's own array.
func TestSpanAttrsClippedAtEnd(t *testing.T) {
	tr := NewTracer()
	_, sp := tr.Start(context.Background(), "op", String("a", "1"))
	sp.End()
	d := tr.Snapshot()[0]
	_ = append(d.Attrs, String("b", "2"))
	if got := tr.Snapshot()[0]; len(got.Attrs) != 1 || sp.inline[1] != (Attr{}) {
		t.Fatalf("a reader's append wrote into the span: %+v", got.Attrs)
	}
	// More attributes than the inline array holds spill to the heap intact.
	_, big := tr.Start(context.Background(), "big", Int("a", 1), Int("b", 2), Int("c", 3))
	big.Annotate(Int("d", 4), Int("e", 5))
	big.End(Int("f", 6))
	if got := tr.Snapshot()[1]; len(got.Attrs) != 6 || got.Attr("a") != "1" || got.Attr("f") != "6" {
		t.Fatalf("spilled attributes = %+v", got.Attrs)
	}
}

// TestSpanBufferChunks files spans across several buffer chunks and reads
// them back whole and in windows that straddle chunk boundaries.
func TestSpanBufferChunks(t *testing.T) {
	tr := NewTracer()
	total := 2*spanChunk + 17
	for i := 0; i < total; i++ {
		_, sp := tr.Start(context.Background(), "s", Int("i", i))
		sp.End()
	}
	all := tr.Snapshot()
	if len(all) != total || tr.Finished() != total {
		t.Fatalf("snapshot %d spans, finished %d, want %d", len(all), tr.Finished(), total)
	}
	for i, d := range all {
		if d.Attr("i") != strconv.Itoa(i) {
			t.Fatalf("span %d holds i=%s", i, d.Attr("i"))
		}
	}
	for _, w := range [][2]int{{spanChunk - 3, 10}, {0, 2*spanChunk + 1}, {spanChunk, spanChunk}, {2 * spanChunk, 0}} {
		got := tr.SnapshotSince(w[0], w[1])
		want := all[w[0]:]
		if w[1] > 0 {
			want = all[w[0]:min(total, w[0]+w[1])]
		}
		if len(got) != len(want) || got[0].ID != want[0].ID || got[len(got)-1].ID != want[len(want)-1].ID {
			t.Fatalf("SnapshotSince(%d, %d) = %d spans, want %d", w[0], w[1], len(got), len(want))
		}
	}
}

// TestTracerConcurrentStartEndAndReads runs under -race: two goroutines
// start and end spans while a third swaps the clock and reads the trace id
// and the buffer — the clock, trace id and open count live outside the
// tracer's mutex.
func TestTracerConcurrentStartEndAndReads(t *testing.T) {
	tr := NewTracer()
	const per = 2000
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, root := tr.Start(context.Background(), "root")
			for i := 0; i < per-1; i++ {
				_, sp := tr.Start(ctx, "child", Int("i", i))
				sp.Annotate(Bool("odd", i%2 == 1))
				sp.End()
			}
			root.End()
		}()
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		virtual := time.Unix(0, 0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				tr.SetClock(ClockFunc(func() time.Time { return virtual }))
			} else {
				tr.SetClock(nil)
			}
			if tr.TraceID().IsZero() {
				t.Error("zero trace id")
			}
			n := len(tr.Snapshot())
			if got := tr.SnapshotSince(n/2, 0); len(got) < n-n/2 {
				t.Errorf("SnapshotSince(%d) = %d spans, want at least %d", n/2, len(got), n-n/2)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := len(tr.Snapshot()); got != 2*per || tr.Open() != 0 || tr.Dropped() != 0 {
		t.Fatalf("spans %d, open %d, dropped %d; want %d, 0, 0", got, tr.Open(), tr.Dropped(), 2*per)
	}
	ids := map[int64]bool{}
	for _, d := range tr.Snapshot() {
		if ids[d.ID] {
			t.Fatalf("span id %d filed twice", d.ID)
		}
		ids[d.ID] = true
	}
}

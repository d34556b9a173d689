package eventlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fairflow/internal/telemetry"
)

func TestAppendSnapshotOrder(t *testing.T) {
	l := NewLog()
	l.Append(Info, RunStart, "", 0, telemetry.String("run", "a"))
	l.Append(Info, RunSucceeded, "", 0, telemetry.String("run", "a"))
	l.Append(Error, RunFailed, "exit 1", 7, telemetry.String("run", "b"))

	evs := l.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(evs))
	}
	for i, want := range []string{RunStart, RunSucceeded, RunFailed} {
		if evs[i].Type != want {
			t.Errorf("event %d type %q, want %q", i, evs[i].Type, want)
		}
		if evs[i].Seq != int64(i+1) {
			t.Errorf("event %d seq %d, want %d", i, evs[i].Seq, i+1)
		}
	}
	if evs[2].Span != 7 || evs[2].Msg != "exit 1" || evs[2].Attr("run") != "b" {
		t.Errorf("failure event lost fields: %+v", evs[2])
	}
}

func TestRingOverflowDrops(t *testing.T) {
	l := NewLog()
	l.SetCapacity(4)
	reg := telemetry.NewRegistry()
	l.SetMetrics(reg)
	for i := 0; i < 10; i++ {
		l.Append(Info, "tick", "", 0)
	}
	if got := len(l.Snapshot()); got != 4 {
		t.Errorf("ring holds %d events, want 4", got)
	}
	if got := l.Dropped(); got != 6 {
		t.Errorf("dropped %d events, want 6", got)
	}
	evs := l.Snapshot()
	if evs[0].Seq != 7 || evs[len(evs)-1].Seq != 10 {
		t.Errorf("ring kept seqs %d..%d, want 7..10", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	if got := reg.Counter("telemetry.events_dropped_total").Value(); got != 6 {
		t.Errorf("events_dropped_total = %d, want 6", got)
	}
	if got := reg.Counter("telemetry.events_total").Value(); got != 10 {
		t.Errorf("events_total = %d, want 10", got)
	}
}

func TestMinLevelGate(t *testing.T) {
	l := NewLog()
	l.SetMinLevel(Warn)
	if l.Enabled(Debug) || l.Enabled(Info) {
		t.Error("levels below minimum report enabled")
	}
	if !l.Enabled(Warn) || !l.Enabled(Error) {
		t.Error("levels at/above minimum report disabled")
	}
	if seq := l.Append(Info, "quiet", "", 0); seq != 0 {
		t.Errorf("below-minimum append returned seq %d, want 0", seq)
	}
	l.Append(Error, "loud", "", 0)
	if got := len(l.Snapshot()); got != 1 {
		t.Errorf("journal holds %d events, want 1", got)
	}
}

func TestClockInjection(t *testing.T) {
	l := NewLog()
	base := time.Unix(0, 0)
	var sim float64
	l.SetClock(telemetry.ClockFunc(func() time.Time {
		return base.Add(time.Duration(sim * float64(time.Second)))
	}))
	l.Append(Info, "a", "", 0)
	sim = 42.5
	l.Append(Info, "b", "", 0)
	evs := l.Snapshot()
	if !evs[0].Time.Equal(base) {
		t.Errorf("first event at %v, want %v", evs[0].Time, base)
	}
	if got := evs[1].Time.Sub(base).Seconds(); got != 42.5 {
		t.Errorf("second event at +%vs, want +42.5s", got)
	}
	if got := l.Now().Sub(base).Seconds(); got != 42.5 {
		t.Errorf("Now() at +%vs, want +42.5s", got)
	}
}

func TestSubscribeDeliversAndAllowsReentrantAppend(t *testing.T) {
	l := NewLog()
	var mu sync.Mutex
	var seen []string
	l.Subscribe(func(ev Event) {
		mu.Lock()
		seen = append(seen, ev.Type)
		mu.Unlock()
		// A subscriber may append back into the log (the monitor records
		// alerts this way); guard against infinite recursion by type.
		if ev.Type == RunFailed {
			l.Append(Warn, AlertFiring, "failure_rate", ev.Span)
		}
	})
	l.Append(Info, RunStart, "", 0)
	l.Append(Error, RunFailed, "boom", 3)

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 || seen[2] != AlertFiring {
		t.Fatalf("subscriber saw %v, want [run.start run.failed alert.firing]", seen)
	}
	if got := len(l.Snapshot()); got != 3 {
		t.Errorf("journal holds %d events, want 3", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := NewLog()
	l.SetClock(telemetry.ClockFunc(func() time.Time { return time.Unix(100, 0).UTC() }))
	l.Append(Error, RunFailed, "exit 1", 9, telemetry.String("run", "g/s/run-00003"))
	l.Append(Debug+10, "future.type", "", 0) // unknown level survives as Info on read

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("JSONL has %d lines, want 2", got)
	}
	back, err := readJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("read back %d events, want 2", len(back))
	}
	ev := back[0]
	if ev.Level != Error || ev.Type != RunFailed || ev.Span != 9 ||
		ev.Msg != "exit 1" || ev.Attr("run") != "g/s/run-00003" ||
		!ev.Time.Equal(time.Unix(100, 0)) {
		t.Errorf("round-trip mangled event: %+v", ev)
	}
	if back[1].Level != Info {
		t.Errorf("unknown level decoded as %v, want info", back[1].Level)
	}
}

func TestSinceCursor(t *testing.T) {
	l := NewLog()
	for i := 0; i < 5; i++ {
		l.Append(Info, "tick", "", 0)
	}
	tail := l.Since(3, 0)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Fatalf("Since(3, 0) = %d events starting at %d, want 2 starting at 4", len(tail), tail[0].Seq)
	}
	if got := l.Since(99, 0); len(got) != 0 {
		t.Errorf("Since(99, 0) returned %d events, want 0", len(got))
	}
	if got := l.Since(1, 3); len(got) != 3 || got[0].Seq != 2 || got[2].Seq != 4 {
		t.Errorf("Since(1, 3) = %+v, want seq 2..4", got)
	}
	if l.LastSeq() != 5 {
		t.Errorf("LastSeq() = %d, want 5", l.LastSeq())
	}
}

// TestSinceCursorAcrossWraparound checks the cursor arithmetic against a scan
// of the snapshot, for every cursor and several limits, on a ring that has
// wrapped (so the oldest event sits mid-buffer and a cursor can point at
// events already overwritten).
func TestSinceCursorAcrossWraparound(t *testing.T) {
	l := NewLog()
	l.SetCapacity(7)
	for i := 0; i < 19; i++ {
		l.Append(Info, "tick", "", 0)
	}
	all := l.Snapshot() // seq 13..19
	for cursor := int64(-1); cursor <= 21; cursor++ {
		for _, max := range []int{0, 1, 3, 7, 50} {
			var want []int64
			for _, ev := range all {
				if ev.Seq > cursor && (max < 1 || len(want) < max) {
					want = append(want, ev.Seq)
				}
			}
			var got []int64
			for _, ev := range l.Since(cursor, max) {
				got = append(got, ev.Seq)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Since(%d, %d) = %v, want %v", cursor, max, got, want)
			}
		}
	}
}

func TestHandlerServesJSONL(t *testing.T) {
	l := NewLog()
	l.SetCapacity(2)
	for i := 0; i < 3; i++ {
		l.Append(Info, "tick", "", 0)
	}
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/events.jsonl", nil))
	if rr.Header().Get("X-Eventlog-Dropped") != "1" {
		t.Errorf("drop header = %q, want 1", rr.Header().Get("X-Eventlog-Dropped"))
	}
	evs, err := readJSONL(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Seq != 2 {
		t.Fatalf("handler served %d events from seq %d, want 2 from 2", len(evs), evs[0].Seq)
	}

	rr = httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/events.jsonl?since=2", nil))
	evs, err = readJSONL(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("since=2 served %d events, want just seq 3", len(evs))
	}

	rr = httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/events.jsonl?since=x", nil))
	if rr.Code != 400 {
		t.Errorf("bad cursor returned %d, want 400", rr.Code)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.SetCapacity(8)
	l.SetClock(nil)
	l.SetMinLevel(Debug)
	l.SetMetrics(telemetry.NewRegistry())
	l.Subscribe(func(Event) { t.Error("nil log delivered an event") })
	if l.Enabled(Error) {
		t.Error("nil log reports enabled")
	}
	if seq := l.Append(Error, "x", "", 0); seq != 0 {
		t.Errorf("nil append returned seq %d", seq)
	}
	if l.Snapshot() != nil || l.Since(0, 0) != nil || l.LastSeq() != 0 || len(l.Snapshot()) != 0 || l.Dropped() != 0 {
		t.Error("nil log reports contents")
	}
	if l.Now().IsZero() {
		t.Error("nil log Now() is zero")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog()
	l.SetCapacity(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(Info, "tick", "", 0)
			}
		}()
	}
	wg.Wait()
	if got := len(l.Snapshot()) + int(l.Dropped()); got != 800 {
		t.Errorf("kept+dropped = %d, want 800", got)
	}
	evs := l.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot seqs not increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestDumpRoundTripAndCompat(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("savanna.runs_executed_total").Add(3)
	tr := telemetry.NewTracer()
	_, sp := tr.Start(nil, "campaign")
	sp.End()
	l := NewLog()
	l.Append(Info, CampaignStart, "", sp.ID())

	var buf bytes.Buffer
	if err := Collect(reg, tr, l).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()

	d, err := ReadDump(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || d.Events[0].Type != CampaignStart || d.Events[0].Span != sp.ID() {
		t.Errorf("events lost in round trip: %+v", d.Events)
	}
	if len(d.Spans) != 1 || d.Spans[0].ID != sp.ID() {
		t.Errorf("spans lost in round trip: %+v", d.Spans)
	}

	// The embedded dump flattens: a plain telemetry reader parses the same
	// bytes, just without events.
	old, err := telemetry.ReadDump(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Spans) != 1 || old.Metrics.Counters[0].Value != 3 {
		t.Errorf("telemetry.ReadDump could not parse eventlog dump: %+v", old)
	}

	// And an old events-free dump parses here with empty events.
	var oldBuf bytes.Buffer
	if err := telemetry.Collect(reg, tr).WriteJSON(&oldBuf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDump(&oldBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Events) != 0 || len(d2.Spans) != 1 {
		t.Errorf("old dump misparsed: %d events, %d spans", len(d2.Events), len(d2.Spans))
	}
}

// TestRingWraparoundConcurrent hammers a tiny ring from many goroutines so
// wraparound happens continuously under contention, then checks the ring's
// suffix invariant: exactly capacity events kept, they are the NEWEST ones
// (a contiguous run of the highest sequence numbers), and every overwrite
// was counted.
func TestRingWraparoundConcurrent(t *testing.T) {
	const cap, goroutines, each = 16, 8, 500
	l := NewLog()
	l.SetCapacity(cap)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Append(Info, "tick", "", int64(g), telemetry.Int("i", i))
			}
		}(g)
	}
	wg.Wait()

	total := int64(goroutines * each)
	if len(l.Snapshot()) != cap {
		t.Fatalf("Len = %d, want the full ring %d", len(l.Snapshot()), cap)
	}
	if got := l.Dropped(); got != total-cap {
		t.Fatalf("dropped = %d, want %d", got, total-cap)
	}
	evs := l.Snapshot()
	for i, ev := range evs {
		if want := total - int64(cap) + int64(i) + 1; ev.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (the newest suffix, contiguous)", i, ev.Seq, want)
		}
	}
	// The polling cursor agrees with the ring: everything before the suffix
	// is gone, everything inside it is reachable.
	if got := l.Since(total-cap, 0); len(got) != cap {
		t.Fatalf("Since(start of suffix) = %d events, want %d", len(got), cap)
	}
	if got := l.Since(total, 0); len(got) != 0 {
		t.Fatalf("Since(latest) = %d events, want 0", len(got))
	}
}

// TestIngestMergesForeignEvents covers the worker-record merge path: Ingest
// keeps the foreign event's payload and timestamp but re-sequences it in
// this log, gates on level, and feeds metrics/subscribers like Append.
func TestIngestMergesForeignEvents(t *testing.T) {
	l := NewLog()
	reg := telemetry.NewRegistry()
	l.SetMetrics(reg)
	var notified []Event
	l.Subscribe(func(ev Event) { notified = append(notified, ev) })

	stamp := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	seq := l.Ingest(Event{Seq: 99, Time: stamp, Level: Warn, Type: RunFailed, Msg: "boom",
		Span: 42, Attrs: []telemetry.Attr{telemetry.String("worker", "w1")}})
	if seq != 1 {
		t.Fatalf("ingested seq = %d, want a fresh local 1 (not the foreign 99)", seq)
	}
	if got := l.Ingest(Event{Level: Debug, Type: "noise"}); got != 0 {
		t.Fatalf("below-min-level ingest filed as seq %d", got)
	}

	evs := l.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	ev := evs[0]
	if !ev.Time.Equal(stamp) {
		t.Fatalf("ingest restamped time: %v", ev.Time)
	}
	if ev.Span != 42 || ev.Msg != "boom" || ev.Attr("worker") != "w1" {
		t.Fatalf("payload mangled: %+v", ev)
	}
	// An ingested event with no timestamp gets the local clock.
	l.Ingest(Event{Level: Info, Type: "bare"})
	if got := l.Snapshot()[1]; got.Time.IsZero() {
		t.Fatal("zero-time ingest not stamped")
	}
	if got := reg.Counter("telemetry.events_total").Value(); got != 2 {
		t.Fatalf("events_total = %d, want 2", got)
	}
	if len(notified) != 2 {
		t.Fatalf("subscribers saw %d events, want 2", len(notified))
	}
}

// readJSONL parses a JSONL journal previously written with WriteJSONL.
// Blank lines are skipped.
func readJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

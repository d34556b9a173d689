package stream

import (
	"testing"

	"fairflow/internal/telemetry/eventlog"
)

// TestSchedulerPunctuationEvents checks the control channel is journaled as
// queue.<op> events and absorbed items appear at debug level.
func TestSchedulerPunctuationEvents(t *testing.T) {
	s := NewScheduler()
	l := eventlog.NewLog()
	l.SetMinLevel(eventlog.Debug)
	s.SetEvents(l)

	sample, err := NewSampleEveryN(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install("sampled", sample); err != nil {
		t.Fatal(err)
	}
	s.Ingest(intItem(t, 1)) // absorbed (every 2nd forwarded)
	s.Ingest(intItem(t, 2)) // forwarded
	if err := s.Punctuate(Punctuation{Op: OpMark, Label: "boundary"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Punctuate(Punctuation{Op: OpDeactivate, Queue: "sampled"}); err != nil {
		t.Fatal(err)
	}

	var types []string
	for _, ev := range l.Snapshot() {
		types = append(types, ev.Type)
	}
	want := []string{"queue.install", "queue.absorbed", "queue.mark", "queue.deactivate"}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types = %v, want %v", types, want)
		}
	}

	evs := l.Snapshot()
	if evs[0].Attr("policy") != sample.Name() {
		t.Errorf("install event policy = %q, want %q", evs[0].Attr("policy"), sample.Name())
	}
	if evs[1].Attr("queue") != "sampled" || evs[1].Level != eventlog.Debug {
		t.Errorf("absorbed event = %+v, want debug with queue=sampled", evs[1])
	}
	if evs[2].Msg != "boundary" {
		t.Errorf("mark event msg = %q, want boundary", evs[2].Msg)
	}

	// With min level Info the absorbed debug event is suppressed entirely.
	l2 := eventlog.NewLog()
	s2 := NewScheduler()
	s2.SetEvents(l2)
	if err := s2.Install("sampled", mustSample(t, 2)); err != nil {
		t.Fatal(err)
	}
	s2.Ingest(intItem(t, 1))
	for _, ev := range l2.Snapshot() {
		if ev.Type == eventlog.QueueAbsorbed {
			t.Error("absorbed event journaled despite Info min level")
		}
	}
}

func mustSample(t *testing.T, n int) Policy {
	t.Helper()
	p, err := NewSampleEveryN(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

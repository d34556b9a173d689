package resilience

import (
	"path/filepath"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source for lease-expiry tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func TestLeaseGrantRenewExpire(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	lt := NewLeaseTable(10*time.Second, func(rec AttemptRecord) {
		if err := j.Append(rec); err != nil {
			t.Error(err)
		}
	}, clk.now)

	l := lt.Grant("w1")
	if l.Worker != "w1" || !l.Expires.Equal(clk.t.Add(10*time.Second)) {
		t.Fatalf("lease = %+v", l)
	}
	if len(lt.leases) != 1 {
		t.Fatalf("held = %d", len(lt.leases))
	}

	// Renew pushes the deadline; without it the lease expires.
	clk.t = clk.t.Add(8 * time.Second)
	if !lt.Renew("w1") {
		t.Fatal("renew of live lease failed")
	}
	clk.t = clk.t.Add(8 * time.Second)
	if got := lt.Expired(); len(got) != 0 {
		t.Fatalf("renewed lease reported expired: %+v", got)
	}
	clk.t = clk.t.Add(3 * time.Second)
	expired := lt.Expired()
	if len(expired) != 1 || expired[0].Worker != "w1" {
		t.Fatalf("expired = %+v", expired)
	}
	if !lt.Expire("w1", "missed heartbeats") {
		t.Fatal("expire of held lease returned false")
	}
	if lt.Renew("w1") {
		t.Fatal("renew of reclaimed lease succeeded")
	}
	if lt.Expire("w1", "again") {
		t.Fatal("double expire returned true")
	}

	// Re-grant issues a fresh lease id; clean release journals departure.
	l2 := lt.Grant("w1")
	if l2.ID == l.ID {
		t.Fatal("re-grant reused lease id")
	}
	lt.Release("w1")
	if len(lt.leases) != 0 {
		t.Fatalf("held after release = %d", len(lt.leases))
	}

	j.Sync()
	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	for _, r := range recs {
		if r.Run != LeaseRunID("w1") || r.Worker != "w1" {
			t.Fatalf("lease record misaddressed: %+v", r)
		}
		events = append(events, r.Event)
	}
	want := []string{LeaseGranted, LeaseExpired, LeaseGranted, LeaseReleased}
	if len(events) != len(want) {
		t.Fatalf("journaled events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("journaled events = %v, want %v", events, want)
		}
	}
}

// TestReplayDispatchedAndLostStayPending pins the exactly-once resume
// semantics of the remote events: a run journaled dispatched (or lost to a
// dead worker) with no terminal record is still owed, and lease records
// under pseudo run ids never surface in Remaining.
func TestReplayDispatchedAndLostStayPending(t *testing.T) {
	recs := []AttemptRecord{
		{Run: LeaseRunID("w1"), Event: LeaseGranted, Worker: "w1"},
		{Run: "a", Event: AttemptDispatched, Worker: "w1"},
		{Run: "b", Event: AttemptDispatched, Worker: "w1"},
		{Run: "b", Attempt: 1, Event: AttemptSuccess, Worker: "w1"},
		{Run: "c", Event: AttemptDispatched, Worker: "w1"},
		{Run: LeaseRunID("w1"), Event: LeaseExpired, Worker: "w1"},
		{Run: "c", Event: AttemptLost, Worker: "w1"},
	}
	st := Replay(recs)
	if st.Done["a"] || st.Done["c"] || !st.Done["b"] {
		t.Fatalf("done = %+v", st.Done)
	}
	if st.InFlight["a"] || st.Failed["a"] {
		t.Fatal("dispatched run must be pending, not in-flight or failed")
	}
	got := st.Remaining([]string{"a", "b", "c"})
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("remaining = %v", got)
	}
}

// TestLeaseRecordsSurviveJournalRoundTrip pins the Worker field through the
// JSONL encode/decode path.
func TestLeaseRecordsSurviveJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(AttemptRecord{Run: "r1", Event: AttemptDispatched, Worker: "w2", Time: time.Unix(5, 0)})
	j.Append(AttemptRecord{Run: "r1", Event: AttemptLost, Worker: "w2", Time: time.Unix(6, 0)})
	j.Close()
	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Worker != "w2" || recs[1].Event != AttemptLost {
		t.Fatalf("recs = %+v", recs)
	}
}

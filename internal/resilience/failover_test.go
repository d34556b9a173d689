package resilience

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- Replay edge cases the failover path depends on ---

func TestReplayDuplicateTerminalRecordsLastStatusWins(t *testing.T) {
	// A spool replay racing a re-dispatch can journal two terminal records
	// for one run (the coordinator's latch makes the second a duplicate,
	// but a torn handover can still interleave them). Replay must keep the
	// last status, deterministically.
	recs := []AttemptRecord{
		{Run: "r1", Attempt: 1, Event: AttemptSuccess, Time: stamp(1)},
		{Run: "r1", Attempt: 2, Event: AttemptFailure, Time: stamp(2)},
		{Run: "r2", Attempt: 1, Event: AttemptFailure, Time: stamp(3)},
		{Run: "r2", Attempt: 2, Event: AttemptSuccess, Time: stamp(4)},
		{Run: "r3", Attempt: 1, Event: AttemptSuccess, Time: stamp(5)},
		{Run: "r3", Attempt: 1, Event: AttemptSuccess, Time: stamp(6)}, // exact duplicate
	}
	st := Replay(recs)
	if st.Done["r1"] || !st.Failed["r1"] {
		t.Errorf("r1: want failed (last status), got done=%v failed=%v", st.Done["r1"], st.Failed["r1"])
	}
	if !st.Done["r2"] || st.Failed["r2"] {
		t.Errorf("r2: want done (last status), got done=%v failed=%v", st.Done["r2"], st.Failed["r2"])
	}
	if !st.Done["r3"] {
		t.Errorf("r3: duplicate success records must still replay done")
	}
	if got := st.Remaining([]string{"r1", "r2", "r3"}); len(got) != 1 || got[0] != "r1" {
		t.Errorf("Remaining = %v, want [r1]", got)
	}
}

func TestReplayTornTailMidHandover(t *testing.T) {
	// A coordinator killed mid-append leaves a torn final line. The
	// successor must replay everything before it and OpenJournal must
	// repair the tail so the successor's first append starts clean.
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(AttemptRecord{Run: "r1", Attempt: 1, Event: AttemptDispatched, Worker: "w1", Time: stamp(1)})
	j.Append(AttemptRecord{Run: "r1", Attempt: 1, Event: AttemptSuccess, Worker: "w1", Time: stamp(2)})
	j.Append(AttemptRecord{Run: "r2", Attempt: 1, Event: AttemptDispatched, Worker: "w1", Time: stamp(3)})
	j.Close()
	// kill -9 mid-append: a half-written record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"run":"r3","attempt":1,"event":"succ`)
	f.Close()

	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("torn tail must decode: %v", err)
	}
	st := Replay(recs)
	if !st.Done["r1"] {
		t.Error("r1 success before the torn tail lost")
	}
	if st.Done["r2"] || st.Done["r3"] {
		t.Error("dispatched/torn runs must stay owed")
	}
	// Handover: the successor opens, fences a new epoch, keeps appending.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	epoch, err := j2.OpenEpoch("successor")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", epoch)
	}
	j2.Append(AttemptRecord{Run: "r2", Attempt: 1, Event: AttemptSuccess, Worker: "w2", Time: stamp(5)})
	recs, err = ReadJournalFile(path)
	if err != nil {
		t.Fatalf("journal after handover must decode cleanly: %v", err)
	}
	st = Replay(recs)
	if !st.Done["r1"] || !st.Done["r2"] {
		t.Errorf("after handover want r1,r2 done; got done=%v", st.Done)
	}
	if st.Epoch != 1 {
		t.Errorf("replayed epoch = %d, want 1", st.Epoch)
	}
}

func TestReplayLeaseRecordsForWorkersThatNeverRejoined(t *testing.T) {
	// Lease and epoch pseudo-records must never surface as runnable work,
	// even for workers that died and never came back.
	recs := []AttemptRecord{
		{Run: EpochRunID, Event: EpochOpened, Epoch: 3, Worker: "coord-a", Time: stamp(1)},
		{Run: LeaseRunID("w1"), Attempt: 1, Event: LeaseGranted, Worker: "w1", Time: stamp(2)},
		{Run: LeaseRunID("w2"), Attempt: 2, Event: LeaseGranted, Worker: "w2", Time: stamp(3)},
		{Run: "r1", Attempt: 1, Event: AttemptDispatched, Worker: "w1", Time: stamp(4)},
		{Run: LeaseRunID("w1"), Attempt: 1, Event: LeaseExpired, Worker: "w1", Time: stamp(5)},
		{Run: "r1", Attempt: 1, Event: AttemptLost, Worker: "w1", Time: stamp(6)},
		{Run: "r1", Attempt: 1, Event: AttemptSuccess, Worker: "w2", Time: stamp(7)},
		// w2's lease is never released: the coordinator died first.
	}
	st := Replay(recs)
	if st.Epoch != 3 {
		t.Errorf("epoch = %d, want 3", st.Epoch)
	}
	ids := []string{"r1", "r2"}
	if got := st.Remaining(ids); len(got) != 1 || got[0] != "r2" {
		t.Errorf("Remaining = %v, want [r2]", got)
	}
	for id := range st.Done {
		if strings.HasPrefix(id, "worker/") || id == EpochRunID {
			t.Errorf("pseudo id %q leaked into Done", id)
		}
	}
	if st.Done[LeaseRunID("w2")] || st.Failed[LeaseRunID("w2")] {
		t.Error("never-rejoined worker's lease records must stay pending")
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

func TestReplayStolenRunsStayOwed(t *testing.T) {
	recs := []AttemptRecord{
		{Run: "r1", Attempt: 0, Event: AttemptDispatched, Worker: "w1", Time: stamp(1)},
		{Run: "r1", Attempt: 0, Event: AttemptStolen, Worker: "w1", Time: stamp(2)},
	}
	st := Replay(recs)
	if got := st.Remaining([]string{"r1"}); len(got) != 1 {
		t.Errorf("stolen-but-not-redispatched run must stay owed; Remaining = %v", got)
	}
}

// --- Epoch fencing and batched fsync ---

func TestJournalOpenEpochMonotonic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	for want := int64(1); want <= 3; want++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := j.OpenEpoch(fmt.Sprintf("coord-%d", want))
		if err != nil {
			t.Fatal(err)
		}
		if epoch != want {
			t.Fatalf("incarnation %d fenced at epoch %d", want, epoch)
		}
		j.Close()
	}
	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := Replay(recs); st.Epoch != 3 {
		t.Errorf("replayed epoch = %d, want 3", st.Epoch)
	}
}

func TestJournalFenceStopsWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append(AttemptRecord{Run: "r1", Attempt: 1, Event: AttemptSuccess, Time: stamp(1)})
	j.Fence()
	if err := j.Append(AttemptRecord{Run: "r2", Attempt: 1, Event: AttemptSuccess, Time: stamp(2)}); err != ErrJournalFenced {
		t.Fatalf("append after fence: %v, want ErrJournalFenced", err)
	}
	recs, _ := ReadJournalFile(path)
	if len(recs) != 1 {
		t.Fatalf("fenced journal grew: %d records", len(recs))
	}
}

func TestJournalAutoSyncCounts(t *testing.T) {
	// Behavioural check only (fsync is invisible to a reader): every
	// record must still be present and decodable with batching armed.
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetAutoSync(8)
	for i := 0; i < 50; i++ {
		if err := j.Append(AttemptRecord{Run: fmt.Sprintf("r%d", i), Attempt: 1, Event: AttemptSuccess, Time: stamp(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("decoded %d records, want 50", len(recs))
	}
}

// --- Coordinator lease file ---

func TestFileLeaseAcquireRenewRelease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl.lease")
	l, err := AcquireFileLease(path, "coord-a", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AcquireFileLease(path, "coord-b", 200*time.Millisecond); err == nil {
		t.Fatal("second holder acquired a live lease")
	}
	if err := l.Renew(); err != nil {
		t.Fatalf("renew: %v", err)
	}
	st, ok, err := ReadFileLease(path)
	if err != nil || !ok {
		t.Fatalf("read lease: ok=%v err=%v", ok, err)
	}
	if st.Holder != "coord-a" {
		t.Errorf("holder = %q", st.Holder)
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ReadFileLease(path); ok {
		t.Fatal("lease file survives release")
	}
	if _, err := AcquireFileLease(path, "coord-b", 200*time.Millisecond); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestFileLeaseTakeoverFencesOldHolder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl.lease")
	now := time.Unix(1000, 0)
	a, err := acquireFileLease(path, "coord-a", 100*time.Millisecond, func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	// Time passes beyond A's claim; B takes over.
	later := now.Add(time.Second)
	b, err := acquireFileLease(path, "coord-b", 100*time.Millisecond, func() time.Time { return later })
	if err != nil {
		t.Fatalf("takeover of a stale claim: %v", err)
	}
	// A's next renewal must discover the takeover, not re-stamp the claim.
	if err := a.Renew(); err == nil {
		t.Fatal("deposed holder renewed over its successor")
	}
	// And A's release must not delete B's claim.
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	st, ok, _ := ReadFileLease(path)
	if !ok || st.Holder != "coord-b" {
		t.Fatalf("successor's claim damaged: ok=%v holder=%q", ok, st.Holder)
	}
	_ = b
}

// TestFileLeaseRenewReleaseUnderClaimLock races a deposed holder's Renew or
// Release against its successor's acquire. Whatever order the claim-directory
// flock lets them run in, the successor's claim survives: a renewal that read
// the old claim cannot overwrite it, and a release cannot delete it.
func TestFileLeaseRenewReleaseUnderClaimLock(t *testing.T) {
	const trials = 200
	path := filepath.Join(t.TempDir(), "attempts.jsonl.lease")
	then := time.Unix(1000, 0)
	later := func() time.Time { return then.Add(time.Hour) } // A's claim is stale to B
	lost := 0
	for i := 0; i < trials; i++ {
		os.Remove(path)
		a, err := acquireFileLease(path, "coord-a", time.Millisecond, func() time.Time { return then })
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if i%2 == 0 {
				a.Renew()
			} else {
				a.Release()
			}
		}()
		if _, err := acquireFileLease(path, "coord-b", time.Millisecond, later); err != nil {
			t.Fatalf("takeover of a stale claim: %v", err)
		}
		<-done
		if st, ok, err := ReadFileLease(path); err != nil || !ok || st.Holder != "coord-b" {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("the successor's claim was overwritten or deleted in %d of %d races", lost, trials)
	}
}

func TestWaitFileLeaseStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "attempts.jsonl.lease")
	l, err := AcquireFileLease(path, "coord-a", 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	_ = l
	// Holder stops renewing: the standby's wait should return shortly
	// after the TTL lapses.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := WaitFileLeaseStale(ctx, path, 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 40*time.Millisecond {
		t.Errorf("standby took over after %v — before the claim could lapse", e)
	}
	// Missing file: stale only after a full TTL of observation.
	missing := filepath.Join(t.TempDir(), "never.lease")
	start = time.Now()
	if err := WaitFileLeaseStale(ctx, missing, 60*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 50*time.Millisecond {
		t.Errorf("missing lease treated stale after only %v", e)
	}
	// Cancellation propagates.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	l2, _ := AcquireFileLease(filepath.Join(t.TempDir(), "x.lease"), "h", time.Hour)
	if err := WaitFileLeaseStale(cctx, l2.path, time.Hour); err == nil {
		t.Fatal("cancelled wait returned nil")
	}
}

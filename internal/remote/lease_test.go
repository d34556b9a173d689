package remote

import (
	"context"
	"net"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
)

// joinByHand opens a worker session with no Worker behind it: the test
// decides when it heartbeats and what it reports. It returns the session
// and the lease the coordinator granted.
func joinByHand(t *testing.T, addr, name string) (*conn, int64) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newConn(nc, 5*time.Second, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	c.post(OpHello, name, 0, &Hello{Slots: 1})
	m, err := c.recv(5 * time.Second)
	if err != nil || m.Op != OpLeaseGrant {
		t.Fatalf("want a lease grant, got %q (err %v)", m.Op, err)
	}
	return c, m.Lease
}

// recvAssign waits for the session's next assignment and returns its run ids.
func recvAssign(t *testing.T, c *conn) []string {
	t.Helper()
	for {
		m, err := c.recv(5 * time.Second)
		if err != nil {
			t.Fatalf("waiting for an assignment: %v", err)
		}
		if m.Op != OpAssign {
			continue
		}
		a, err := decodeBody[Assignment](m)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(a.Runs))
		for i, r := range a.Runs {
			ids[i] = r.ID
		}
		return ids
	}
}

// leaseCampaign runs four runs, two to a batch, under a 100 ms lease TTL,
// with an attempt journal; wait returns the campaign's report and journal.
func leaseCampaign(t *testing.T, reg *telemetry.Registry) (addr string, wait func() (resilience.CompletenessReport, []resilience.AttemptRecord)) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "attempts.jsonl")
	j, err := resilience.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	ln := listen(t)
	e := &Engine{Listener: ln, BatchSize: 2, LeaseTTL: 100 * time.Millisecond, Metrics: reg,
		Resilience: &resilience.Config{Journal: j}}
	done := make(chan resilience.CompletenessReport, 1)
	go func() {
		_, report, err := e.RunCampaign(context.Background(), "leases", testRuns(4))
		if err != nil {
			t.Error(err)
		}
		done <- report
	}()
	return ln.Addr().String(), func() (resilience.CompletenessReport, []resilience.AttemptRecord) {
		var report resilience.CompletenessReport
		select {
		case report = <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("campaign did not finish")
		}
		j.Sync()
		recs, err := resilience.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return report, recs
	}
}

// TestLeaseExpiryRequeuesAndRegrants walks one worker name through the lease
// state machine the coordinator keeps in its worker record. A silent worker
// ends lease-expired for missed heartbeats and its runs are journaled lost
// and requeued; the same name joining again is granted a fresh lease id,
// which its lease-granted record carries; heartbeats keep that lease alive
// across four TTLs of holding runs unreported; and the drain ends it
// lease-released.
func TestLeaseExpiryRequeuesAndRegrants(t *testing.T) {
	const ttl = 100 * time.Millisecond
	reg := telemetry.NewRegistry()
	addr, wait := leaseCampaign(t, reg)

	silent, first := joinByHand(t, addr, "w1")
	held := recvAssign(t, silent)
	waitFor(t, 5*time.Second, func() bool { return reg.Gauge("remote.workers_dead").Value() == 1 })
	silent.close()

	c, second := joinByHand(t, addr, "w1")
	if second == first {
		t.Fatalf("the returning worker was granted lease %d again", first)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(ttl / 4)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.post(OpHeartbeat, "w1", second, &Heartbeat{})
			}
		}
	}()
	holdUntil := time.Now().Add(4 * ttl)
	for done := 0; done < 4; {
		ids := recvAssign(t, c)
		time.Sleep(time.Until(holdUntil))
		for _, id := range ids {
			c.post(OpResult, "w1", second, &Outcome{RunID: id, OK: true})
			done++
		}
	}
	for { // the acks, then the drain
		if m, err := c.recv(5 * time.Second); err != nil || m.Op == OpDrain {
			break
		}
	}
	c.close()

	report, recs := wait()
	if !report.Complete() || report.Succeeded != 4 {
		t.Fatalf("report = %+v", report)
	}
	var leases []resilience.AttemptRecord
	lost := map[string]bool{}
	for _, r := range recs {
		switch {
		case r.Run == resilience.LeaseRunID("w1"):
			if r.Worker != "w1" {
				t.Errorf("lease record for worker %q: %+v", r.Worker, r)
			}
			leases = append(leases, r)
		case r.Event == resilience.AttemptLost:
			if r.Worker != "w1" || r.Err != "lease expired: missed heartbeats" {
				t.Errorf("lost record = %+v", r)
			}
			lost[r.Run] = true
		}
	}
	var events []string
	for _, r := range leases {
		events = append(events, r.Event)
	}
	want := []string{resilience.LeaseGranted, resilience.LeaseExpired, resilience.LeaseGranted, resilience.LeaseReleased}
	if !slices.Equal(events, want) {
		t.Fatalf("lease records = %v, want %v", events, want)
	}
	if leases[0].Attempt != int(first) || leases[2].Attempt != int(second) {
		t.Errorf("grants carry leases %d and %d, want %d and %d", leases[0].Attempt, leases[2].Attempt, first, second)
	}
	if leases[1].Err != "lease expired: missed heartbeats" {
		t.Errorf("expiry reason = %q", leases[1].Err)
	}
	for _, id := range held {
		if !lost[id] {
			t.Errorf("run %s the silent worker held was not journaled lost", id)
		}
	}
	if len(lost) != len(held) {
		t.Errorf("lost runs = %v, want the silent worker's %v", lost, held)
	}
}

// TestWorkersDeadGaugeReplacedUnderAnotherName: a worker dies and a
// replacement joins under another name — as a restarted, auto-named fairctl
// worker does. The replacement takes the dead worker's place, so the
// remote.workers_dead gauge (and the dead-workers alert reading it) returns
// to 0, while remote.workers_dead_total keeps the death.
func TestWorkersDeadGaugeReplacedUnderAnotherName(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr, wait := leaseCampaign(t, reg)
	silent, _ := joinByHand(t, addr, "w1")
	recvAssign(t, silent)
	waitFor(t, 5*time.Second, func() bool { return reg.Gauge("remote.workers_dead").Value() == 1 })
	silent.close()

	w := &Worker{Name: "w2", Addr: addr, Slots: 1, Heartbeat: 20 * time.Millisecond,
		Executor: execFn(func(context.Context, cheetah.Run) error { return nil })}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if report, _ := wait(); !report.Complete() {
		t.Fatalf("report = %+v", report)
	}
	if got := reg.Gauge("remote.workers_dead").Value(); got != 0 {
		t.Errorf("workers_dead = %v after a replacement joined, want 0", got)
	}
	if got := reg.Counter("remote.workers_dead_total").Value(); got != 1 {
		t.Errorf("workers_dead_total = %d, want 1", got)
	}
}

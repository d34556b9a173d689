package hpcsim

import (
	"testing"
	"time"

	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// virtualClock stamps at simulated second s the instant s seconds past the
// Unix epoch, so journal times read as virtual time.
func virtualClock(sim *Sim) telemetry.Clock {
	return telemetry.ClockFunc(func() time.Time {
		return time.Unix(0, 0).Add(time.Duration(sim.Now() * float64(time.Second)))
	})
}

// TestClusterEventJournal drives one job through the cluster and checks the
// journal records its lifecycle in virtual time.
func TestClusterEventJournal(t *testing.T) {
	sim := New()
	c := NewCluster(sim, ClusterConfig{Nodes: 4}, 1)
	l := eventlog.NewLog()
	l.SetClock(virtualClock(sim))
	c.SetEvents(l)

	_, err := c.Submit(JobSpec{
		Name: "job", Nodes: 2, Walltime: 100,
		OnStart: func(a *Allocation) {
			if _, err := a.RunTask("t", a.Nodes()[0], 10, func(ok bool) {
				a.Release()
			}); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()

	var types []string
	for _, ev := range l.Snapshot() {
		types = append(types, ev.Type)
	}
	want := []string{eventlog.JobQueued, eventlog.JobStarted, eventlog.JobCompleted}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event types = %v, want %v", types, want)
		}
	}
	evs := l.Snapshot()
	if evs[0].Attr("job") == "" {
		t.Error("job.queued missing job attr")
	}
	// job.completed is stamped at the virtual release instant (10 s).
	if got := evs[2].Time; !got.Equal(time.Unix(10, 0)) {
		t.Errorf("job.completed stamped %v, want virtual 10s", got)
	}
}

// TestClusterExpiryAndFailureEvents checks walltime expiry journals at warn
// level and the failure injector journals node.failed / node.repaired.
func TestClusterExpiryAndFailureEvents(t *testing.T) {
	sim := New()
	c := NewCluster(sim, ClusterConfig{Nodes: 2}, 1)
	l := eventlog.NewLog()
	l.SetClock(virtualClock(sim))
	c.SetEvents(l)
	NewFailureInjector(c, FailureConfig{MTTF: 40, RepairTime: 10, Horizon: 200}, 7)

	_, err := c.Submit(JobSpec{
		Name: "long", Nodes: 1, Walltime: 50,
		OnStart: func(a *Allocation) {
			a.RunTask("t", a.Nodes()[0], 500, func(ok bool) {})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()

	var expired, failed, repaired int
	for _, ev := range l.Snapshot() {
		switch ev.Type {
		case eventlog.JobExpired:
			expired++
			if ev.Level != eventlog.Warn {
				t.Errorf("job.expired level = %s, want warn", ev.Level)
			}
		case eventlog.NodeFailed:
			failed++
			if ev.Level != eventlog.Warn {
				t.Errorf("node.failed level = %s, want warn", ev.Level)
			}
			if ev.Attr("node") == "" {
				t.Error("node.failed missing node attr")
			}
		case eventlog.NodeRepaired:
			repaired++
		}
	}
	if expired != 1 {
		t.Errorf("job.expired events = %d, want 1", expired)
	}
	if failed == 0 {
		t.Error("no node.failed events despite MTTF 40 over a 200s horizon")
	}
	if repaired == 0 {
		t.Error("no node.repaired events")
	}
}

package hpcsim

import (
	"testing"

	"fairflow/internal/telemetry"
)

// TestClusterTelemetry drives one job through the cluster and checks the
// gauges track node/queue state and the counters track terminal jobs.
func TestClusterTelemetry(t *testing.T) {
	sim := New()
	c := NewCluster(sim, ClusterConfig{Nodes: 4}, 1)
	reg := telemetry.NewRegistry()
	c.SetMetrics(reg)

	gauge := func(name string) float64 {
		t.Helper()
		return reg.Gauge(name).Value()
	}
	if got := gauge("hpcsim.free_nodes"); got != 4 {
		t.Fatalf("free_nodes at rest = %v, want 4", got)
	}

	var busyDuringTask, utilDuringTask float64
	_, err := c.Submit(JobSpec{
		Name: "job", Nodes: 2, Walltime: 100,
		OnStart: func(a *Allocation) {
			if _, err := a.RunTask("t", a.Nodes()[0], 10, func(ok bool) {
				a.Release()
			}); err != nil {
				t.Error(err)
			}
			busyDuringTask = gauge("hpcsim.busy_nodes")
			utilDuringTask = gauge("hpcsim.node_utilization")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := gauge("hpcsim.queued_jobs"); got != 1 {
		t.Fatalf("queued_jobs after submit = %v, want 1", got)
	}
	sim.Run()

	if busyDuringTask != 1 {
		t.Errorf("busy_nodes during task = %v, want 1", busyDuringTask)
	}
	if utilDuringTask != 0.25 {
		t.Errorf("node_utilization during task = %v, want 0.25", utilDuringTask)
	}
	if got := gauge("hpcsim.free_nodes"); got != 4 {
		t.Errorf("free_nodes after release = %v, want 4", got)
	}
	if got := gauge("hpcsim.queued_jobs"); got != 0 {
		t.Errorf("queued_jobs after release = %v, want 0", got)
	}
	if got := reg.Counter("hpcsim.jobs_completed_total").Value(); got != 1 {
		t.Errorf("jobs_completed_total = %d, want 1", got)
	}
}

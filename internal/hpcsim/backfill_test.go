package hpcsim

import (
	"math"
	"testing"
)

// holdJob returns a job spec that occupies its nodes for `hold` seconds.
func holdJob(name string, nodes int, walltime, hold float64, started *[]string, startTimes map[string]float64) JobSpec {
	return JobSpec{
		Name: name, Nodes: nodes, Walltime: walltime,
		OnStart: func(a *Allocation) {
			*started = append(*started, name)
			startTimes[name] = a.cluster.sim.Now()
			a.cluster.sim.After(hold, a.Release)
		},
	}
}

func TestBackfillLetsShortJobJumpAhead(t *testing.T) {
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: 4, FS: quietFS(1e12, 1e10), Scheduling: Backfill}, 7)
	var order []string
	times := map[string]float64{}
	// big1 takes the whole machine for 100 s. big2 (also 4 nodes) must wait
	// for it. tiny (1 node, 50 s walltime) fits entirely inside big2's
	// shadow — it should backfill... but big1 holds ALL nodes, so nothing is
	// free. Use a 3-node head instead: big1 uses 3 nodes, big2 needs 4,
	// tiny needs the 1 idle node and ends before big1's deadline.
	c.Submit(holdJob("big1", 3, 100, 100, &order, times))
	c.Submit(holdJob("big2", 4, 100, 10, &order, times))
	c.Submit(holdJob("tiny", 1, 50, 50, &order, times))
	s.Run()
	if len(order) != 3 {
		t.Fatalf("started: %v", order)
	}
	if order[1] != "tiny" {
		t.Fatalf("tiny did not backfill: %v", order)
	}
	if times["tiny"] != times["big1"] {
		t.Fatalf("tiny started at %v, want %v (immediately)", times["tiny"], times["big1"])
	}
	// big2 starts when big1 and tiny finish (t=100), undisturbed by tiny.
	if math.Abs(times["big2"]-100) > 1e-9 {
		t.Fatalf("backfill delayed the head job: big2 at %v", times["big2"])
	}
	if c.BackfilledJobs != 1 {
		t.Fatalf("backfilled jobs = %d", c.BackfilledJobs)
	}
}

func TestBackfillNeverDelaysHeadJob(t *testing.T) {
	// A long narrow job must NOT backfill if its walltime crosses the head
	// job's reservation.
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: 4, FS: quietFS(1e12, 1e10), Scheduling: Backfill}, 7)
	var order []string
	times := map[string]float64{}
	c.Submit(holdJob("big1", 3, 100, 100, &order, times))
	c.Submit(holdJob("big2", 4, 100, 10, &order, times))
	c.Submit(holdJob("long-narrow", 1, 500, 20, &order, times))
	s.Run()
	// long-narrow's 500 s walltime exceeds big1's 100 s reservation window,
	// so it must wait behind big2 even though a node is idle.
	if order[1] != "big2" {
		t.Fatalf("start order: %v", order)
	}
	if times["long-narrow"] < times["big2"] {
		t.Fatal("long job backfilled across the reservation")
	}
	if c.BackfilledJobs != 0 {
		t.Fatalf("backfilled jobs = %d", c.BackfilledJobs)
	}
}

func TestFIFOIgnoresBackfillOpportunity(t *testing.T) {
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: 4, FS: quietFS(1e12, 1e10)}, 7) // default FIFO
	var order []string
	times := map[string]float64{}
	c.Submit(holdJob("big1", 3, 100, 100, &order, times))
	c.Submit(holdJob("big2", 4, 100, 10, &order, times))
	c.Submit(holdJob("tiny", 1, 50, 50, &order, times))
	s.Run()
	if order[1] != "big2" {
		t.Fatalf("FIFO start order: %v", order)
	}
	if times["tiny"] <= times["big2"] {
		t.Fatal("FIFO allowed a jump-ahead")
	}
}

func TestBackfillImprovesMakespan(t *testing.T) {
	// Ablation — the classic EASY scenario: A (4 nodes, 100 s) runs; B
	// (8 nodes) blocks the FIFO queue; C (4 nodes, 90 s) fits entirely
	// inside B's shadow. FIFO serialises A → B → C; backfill overlaps C
	// with A and nearly halves the makespan.
	run := func(policy SchedulingPolicy) float64 {
		s := New()
		c := NewCluster(s, ClusterConfig{Nodes: 8, FS: quietFS(1e12, 1e10), Scheduling: policy}, 7)
		var order []string
		times := map[string]float64{}
		c.Submit(holdJob("A", 4, 100, 100, &order, times))
		c.Submit(holdJob("B", 8, 100, 10, &order, times))
		c.Submit(holdJob("C", 4, 90, 90, &order, times))
		s.Run()
		return s.Now()
	}
	fifo := run(FIFO)
	bf := run(Backfill)
	if bf >= fifo {
		t.Fatalf("backfill makespan %.0f not better than FIFO %.0f", bf, fifo)
	}
	if fifo-bf < 80 {
		t.Fatalf("backfill saved only %.0f s", fifo-bf)
	}
}

func TestReservationTimeImmediateWhenFree(t *testing.T) {
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: 4, FS: quietFS(1e12, 1e10), Scheduling: Backfill}, 7)
	if got := c.reservationTime(4); got != 0 {
		t.Fatalf("reservation on empty machine = %v", got)
	}
}

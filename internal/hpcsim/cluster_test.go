package hpcsim

import (
	"math"
	"testing"
)

func testCluster(t *testing.T, nodes int) (*Sim, *Cluster) {
	t.Helper()
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: nodes, FS: quietFS(1e12, 1e10)}, 7)
	return s, c
}

func TestSubmitValidation(t *testing.T) {
	_, c := testCluster(t, 4)
	if _, err := c.Submit(JobSpec{Name: "bad", Nodes: 0, Walltime: 10}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := c.Submit(JobSpec{Name: "bad", Nodes: 5, Walltime: 10}); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := c.Submit(JobSpec{Name: "bad", Nodes: 1, Walltime: 0}); err == nil {
		t.Fatal("zero walltime accepted")
	}
}

func TestJobRunsTasksAndReleases(t *testing.T) {
	s, c := testCluster(t, 4)
	var completions int
	job, err := c.Submit(JobSpec{
		Name: "j", Nodes: 4, Walltime: 1000,
		OnStart: func(a *Allocation) {
			nodes := a.Nodes()
			if len(nodes) != 4 {
				t.Errorf("allocation has %d nodes", len(nodes))
			}
			remaining := len(nodes)
			for _, nid := range nodes {
				_, err := a.RunTask("t", nid, 50, func(ok bool) {
					if !ok {
						t.Error("task killed unexpectedly")
					}
					completions++
					remaining--
					if remaining == 0 {
						a.Release()
					}
				})
				if err != nil {
					t.Error(err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if completions != 4 {
		t.Fatalf("completions = %d", completions)
	}
	if job.State != JobCompleted {
		t.Fatalf("job state = %s", job.State)
	}
	if math.Abs(job.Ended-50) > 1e-9 {
		t.Fatalf("job ended at %v", job.Ended)
	}
	if c.FreeNodes() != 4 {
		t.Fatalf("free nodes = %d", c.FreeNodes())
	}
	if c.CompletedJobs != 1 {
		t.Fatalf("completed jobs = %d", c.CompletedJobs)
	}
}

func TestWalltimeExpiryKillsTasks(t *testing.T) {
	s, c := testCluster(t, 2)
	var killed, finished int
	job, err := c.Submit(JobSpec{
		Name: "j", Nodes: 2, Walltime: 100,
		OnStart: func(a *Allocation) {
			a.RunTask("short", a.Nodes()[0], 10, func(ok bool) {
				if ok {
					finished++
				}
			})
			a.RunTask("long", a.Nodes()[1], 500, func(ok bool) {
				if !ok {
					killed++
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if finished != 1 || killed != 1 {
		t.Fatalf("finished=%d killed=%d", finished, killed)
	}
	if job.State != JobExpired {
		t.Fatalf("state = %s", job.State)
	}
	if c.ExpiredJobs != 1 {
		t.Fatalf("expired jobs = %d", c.ExpiredJobs)
	}
	if math.Abs(job.Ended-100) > 1e-9 {
		t.Fatalf("ended at %v", job.Ended)
	}
}

func TestFIFOQueueing(t *testing.T) {
	s, c := testCluster(t, 4)
	var order []string
	starter := func(name string, hold float64) func(*Allocation) {
		return func(a *Allocation) {
			order = append(order, name)
			a.cluster.sim.After(hold, a.Release)
		}
	}
	c.Submit(JobSpec{Name: "a", Nodes: 3, Walltime: 1000, OnStart: starter("a", 10)})
	c.Submit(JobSpec{Name: "b", Nodes: 3, Walltime: 1000, OnStart: starter("b", 10)})
	c.Submit(JobSpec{Name: "c", Nodes: 1, Walltime: 1000, OnStart: starter("c", 10)})
	s.Run()
	// FIFO without backfill: c (1 node) must wait behind b even though a
	// leaves a free node.
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("start order: %v", order)
	}
}

func TestQueueWaitAccounting(t *testing.T) {
	s, c := testCluster(t, 1)
	var secondWait float64
	c.Submit(JobSpec{Name: "first", Nodes: 1, Walltime: 1000,
		OnStart: func(a *Allocation) { a.cluster.sim.After(25, a.Release) }})
	c.Submit(JobSpec{Name: "second", Nodes: 1, Walltime: 1000,
		OnStart: func(a *Allocation) {
			secondWait = a.job.Started - a.job.Submitted
			a.Release()
		}})
	s.Run()
	if math.Abs(secondWait-25) > 1e-9 {
		t.Fatalf("queue wait = %v", secondWait)
	}
}

func TestRunTaskErrors(t *testing.T) {
	s, c := testCluster(t, 2)
	c.Submit(JobSpec{
		Name: "j", Nodes: 1, Walltime: 100,
		OnStart: func(a *Allocation) {
			nid := a.Nodes()[0]
			if _, err := a.RunTask("t", nid, 10, nil); err != nil {
				t.Error(err)
			}
			if _, err := a.RunTask("busy", nid, 10, nil); err == nil {
				t.Error("double-booked a node")
			}
			if _, err := a.RunTask("wrong", 99, 10, nil); err == nil {
				t.Error("ran on a node outside the allocation")
			}
			if _, err := a.RunTask("neg", nid, -1, nil); err == nil {
				t.Error("negative duration accepted")
			}
			a.cluster.sim.After(20, func() {
				a.Release()
				if _, err := a.RunTask("late", nid, 1, nil); err == nil {
					t.Error("task started on released allocation")
				}
			})
		},
	})
	s.Run()
}

func TestIdleNodesTracking(t *testing.T) {
	s, c := testCluster(t, 3)
	c.Submit(JobSpec{
		Name: "j", Nodes: 3, Walltime: 100,
		OnStart: func(a *Allocation) {
			if len(a.IdleNodes()) != 3 {
				t.Errorf("idle at start: %v", a.IdleNodes())
			}
			a.RunTask("t", a.Nodes()[0], 10, nil)
			if len(a.IdleNodes()) != 2 {
				t.Errorf("idle after one task: %v", a.IdleNodes())
			}
			a.cluster.sim.After(50, a.Release)
		},
	})
	s.Run()
}

func TestAllocationWriteFSIntegration(t *testing.T) {
	s, c := testCluster(t, 2)
	var elapsed float64
	c.Submit(JobSpec{
		Name: "io", Nodes: 2, Walltime: 1e6,
		OnStart: func(a *Allocation) {
			a.WriteFS(2, 2e10, func(e float64) {
				elapsed = e
				a.Release()
			})
		},
	})
	s.Run()
	// 2 nodes × 1e10 B/s each = 2e10 B/s (< 1e12 aggregate) → 1 s.
	if math.Abs(elapsed-1) > 1e-9 {
		t.Fatalf("fs write elapsed = %v", elapsed)
	}
}

func TestUtilizationRecordedPerTask(t *testing.T) {
	s, c := testCluster(t, 2)
	c.Submit(JobSpec{
		Name: "j", Nodes: 2, Walltime: 1000,
		OnStart: func(a *Allocation) {
			done := 0
			for _, nid := range a.Nodes() {
				a.RunTask("t", nid, 40, func(bool) {
					done++
					if done == 2 {
						a.Release()
					}
				})
			}
		},
	})
	s.Run()
	start, end := c.Util().Span()
	if got := c.Util().UtilizationFraction(2, start, end) * 2 * (end - start); math.Abs(got-80) > 1e-9 {
		t.Fatalf("busy node-seconds = %v", got)
	}
	if n := len(c.Util().intervals); n != 2 {
		t.Fatalf("intervals = %d", n)
	}
}

func TestRemainingAndDeadline(t *testing.T) {
	s, c := testCluster(t, 1)
	c.Submit(JobSpec{
		Name: "j", Nodes: 1, Walltime: 100,
		OnStart: func(a *Allocation) {
			if a.Remaining() != 100 {
				t.Errorf("remaining at start = %v", a.Remaining())
			}
			a.cluster.sim.After(30, func() {
				if a.Remaining() != 70 {
					t.Errorf("remaining at 30 = %v", a.Remaining())
				}
				a.Release()
				if a.Remaining() != 0 {
					t.Errorf("remaining after release = %v", a.Remaining())
				}
			})
		},
	})
	s.Run()
}

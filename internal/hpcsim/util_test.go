package hpcsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUtilRecordSwapsReversedInterval(t *testing.T) {
	u := NewUtilRecorder()
	u.Record(10, 5)
	if start, end := u.Span(); start != 5 || end != 10 {
		t.Fatalf("span = %v..%v", start, end)
	}
}

func TestTimelineBucketsAverages(t *testing.T) {
	u := NewUtilRecorder()
	// Node 0 busy [0,10); node 1 busy [0,5).
	u.Record(0, 10)
	u.Record(0, 5)
	tl := u.Timeline(0, 10, 2)
	if len(tl) != 2 {
		t.Fatalf("buckets = %d", len(tl))
	}
	if math.Abs(tl[0].BusyNodes-2) > 1e-9 {
		t.Fatalf("bucket 0 = %v, want 2", tl[0].BusyNodes)
	}
	if math.Abs(tl[1].BusyNodes-1) > 1e-9 {
		t.Fatalf("bucket 1 = %v, want 1", tl[1].BusyNodes)
	}
	if tl[0].Time != 0 || tl[1].Time != 5 {
		t.Fatalf("bucket starts: %v, %v", tl[0].Time, tl[1].Time)
	}
}

func TestTimelineClipsToWindow(t *testing.T) {
	u := NewUtilRecorder()
	u.Record(-100, 100)
	tl := u.Timeline(0, 10, 1)
	if math.Abs(tl[0].BusyNodes-1) > 1e-9 {
		t.Fatalf("clipped bucket = %v", tl[0].BusyNodes)
	}
}

func TestTimelineDegenerateInputs(t *testing.T) {
	u := NewUtilRecorder()
	u.Record(0, 1)
	if u.Timeline(0, 10, 0) != nil {
		t.Fatal("zero buckets should return nil")
	}
	if u.Timeline(10, 10, 5) != nil {
		t.Fatal("empty window should return nil")
	}
}

func TestUtilizationFraction(t *testing.T) {
	u := NewUtilRecorder()
	u.Record(0, 10)
	u.Record(0, 5)
	got := u.UtilizationFraction(2, 0, 10)
	if math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("fraction = %v, want 0.75", got)
	}
	if u.UtilizationFraction(0, 0, 10) != 0 {
		t.Fatal("zero nodes should yield 0")
	}
}

func TestPerNodeBusyAndSpan(t *testing.T) {
	u := NewUtilRecorder()
	u.Record(2, 6)
	u.Record(8, 10)
	u.Record(0, 1)
	start, end := u.Span()
	if start != 0 || end != 10 {
		t.Fatalf("span = %v..%v", start, end)
	}
}

func TestSpanEmpty(t *testing.T) {
	u := NewUtilRecorder()
	if s, e := u.Span(); s != 0 || e != 0 {
		t.Fatalf("empty span = %v..%v", s, e)
	}
}

func TestTimelineConservesBusyTime(t *testing.T) {
	// Property: the sum over buckets of BusyNodes×width equals the busy
	// node-seconds inside the window.
	f := func(raw [][2]uint8) bool {
		u := NewUtilRecorder()
		for _, r := range raw {
			u.Record(float64(r[0]), float64(r[1]))
		}
		const start, end = 0.0, 256.0
		const buckets = 16
		tl := u.Timeline(start, end, buckets)
		width := (end - start) / buckets
		var sum float64
		for _, p := range tl {
			sum += p.BusyNodes * width
		}
		want := u.UtilizationFraction(1, start, end) * (end - start)
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFailureInjectorKillsTasksAndRepairs(t *testing.T) {
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: 4, FS: quietFS(1e12, 1e10)}, 7)
	fi := NewFailureInjector(c, FailureConfig{MTTF: 200, RepairTime: 50, Horizon: 5000}, 3)
	var killed, finished int
	c.Submit(JobSpec{
		Name: "long", Nodes: 4, Walltime: 4000,
		OnStart: func(a *Allocation) {
			for _, nid := range a.Nodes() {
				a.RunTask("t", nid, 3000, func(ok bool) {
					if ok {
						finished++
					} else {
						killed++
					}
				})
			}
			a.cluster.sim.After(3500, a.Release)
		},
	})
	s.Run()
	if fi.Failures == 0 {
		t.Fatal("no failures injected with MTTF=200 over 5000s")
	}
	if killed == 0 {
		t.Fatal("failures killed no tasks")
	}
	if killed != fi.KilledTasks {
		t.Fatalf("killed=%d injector says %d", killed, fi.KilledTasks)
	}
	if killed+finished != 4 {
		t.Fatalf("killed=%d finished=%d, want total 4", killed, finished)
	}
}

func TestFailureInjectorDisabled(t *testing.T) {
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: 2, FS: quietFS(1e12, 1e10)}, 7)
	fi := NewFailureInjector(c, FailureConfig{MTTF: 0}, 3)
	c.Submit(JobSpec{Name: "j", Nodes: 2, Walltime: 100,
		OnStart: func(a *Allocation) { a.Release() }})
	s.Run()
	if fi.Failures != 0 {
		t.Fatal("disabled injector failed nodes")
	}
}

func TestRepairedNodeReturnsToPool(t *testing.T) {
	s := New()
	c := NewCluster(s, ClusterConfig{Nodes: 1, FS: quietFS(1e12, 1e10)}, 7)
	// Deterministically fail the single node soon by choosing a tiny MTTF,
	// then verify a queued job eventually runs after repair.
	NewFailureInjector(c, FailureConfig{MTTF: 5, RepairTime: 10, Horizon: 8}, 3)
	started := false
	s.At(9, func() { // submit after the failure window closes
		c.Submit(JobSpec{Name: "late", Nodes: 1, Walltime: 50,
			OnStart: func(a *Allocation) {
				started = true
				a.Release()
			}})
	})
	s.Run()
	if !started {
		t.Fatal("job never started after node repair")
	}
}

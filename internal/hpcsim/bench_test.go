package hpcsim

import (
	"runtime"
	"testing"
)

// BenchmarkSimReplay drains a pre-scheduled million-event campaign — 64
// events per timestamp tick, the first of each tick rescheduling a follow-on
// at the same instant, the shape of a large allocation's task-completion
// storm. "step" dispatches one event per call; "batch" drains whole
// same-timestamp cohorts via StepBatch. Each op is the mean of 3 replays so
// one scheduler hiccup can't dominate a sample — this is the simulator's
// raw dispatch ceiling, gated in BENCH_PR6.json. Building a campaign leaves
// ~1M closures of garbage behind; the forced collection inside the untimed
// window keeps GC assist debt from landing in whichever drain the pacer
// happens to hit, which otherwise makes samples bimodal on small machines.
func BenchmarkSimReplay(b *testing.B) {
	const events, cohort, replays = 1_000_000, 64, 3
	build := func() *Sim {
		s := New()
		fired := 0
		for i := 0; i < events; i++ {
			t := float64(i / cohort)
			if i%cohort == 0 {
				s.At(t, func() {
					fired++
					s.After(0, func() { fired++ })
				})
			} else {
				s.At(t, func() { fired++ })
			}
		}
		return s
	}
	b.Run("step", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < replays; r++ {
				b.StopTimer()
				s := build()
				runtime.GC()
				b.StartTimer()
				for s.Step() {
				}
				if s.Processed() < events {
					b.Fatalf("processed %d < %d", s.Processed(), events)
				}
			}
		}
		b.ReportMetric(float64(events*replays), "events")
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < replays; r++ {
				b.StopTimer()
				s := build()
				runtime.GC()
				b.StartTimer()
				s.Run()
				if s.Processed() < events {
					b.Fatalf("processed %d < %d", s.Processed(), events)
				}
			}
		}
		b.ReportMetric(float64(events*replays), "events")
	})
}

func BenchmarkEventLoop(b *testing.B) {
	s := New()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, func() {})
		s.Step()
	}
}

func BenchmarkFilesystemContention(b *testing.B) {
	// Each iteration runs 32 concurrent striped writes through the
	// processor-sharing model to completion.
	for i := 0; i < b.N; i++ {
		s := New()
		fs := NewFilesystem(s, DefaultSummitFS(), int64(i)+1)
		for w := 0; w < 32; w++ {
			fs.Write(4, 1e10, func(float64) {})
		}
		s.Run()
	}
}

func BenchmarkPilotAllocationCycle(b *testing.B) {
	// One batch job per iteration: submit, run 64 tasks over 8 nodes
	// dynamically, release.
	for i := 0; i < b.N; i++ {
		s := New()
		c := NewCluster(s, ClusterConfig{Nodes: 8, FS: quietFS(1e12, 1e10)}, int64(i)+1)
		c.Submit(JobSpec{
			Name: "pilot", Nodes: 8, Walltime: 1e6,
			OnStart: func(a *Allocation) {
				remaining := 64
				var assign func()
				assign = func() {
					for _, nid := range a.IdleNodes() {
						if remaining == 0 {
							break
						}
						remaining--
						a.RunTask("t", nid, 10, func(bool) { assign() })
					}
					if remaining == 0 && len(a.IdleNodes()) == 8 {
						a.Release()
					}
				}
				assign()
			},
		})
		s.Run()
	}
}

// BenchmarkLeadershipScale drives a Summit-sized machine (4608 nodes)
// through a 50k-task pilot campaign — the simulator's scalability envelope.
func BenchmarkLeadershipScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		c := NewCluster(s, ClusterConfig{Nodes: 4608, FS: quietFS(2.5e12, 12.5e9)}, int64(i)+1)
		remaining := 50_000
		c.Submit(JobSpec{
			Name: "pilot", Nodes: 4608, Walltime: 1e9,
			OnStart: func(a *Allocation) {
				var assign func()
				assign = func() {
					for _, nid := range a.IdleNodes() {
						if remaining == 0 {
							break
						}
						remaining--
						a.RunTask("t", nid, 100, func(bool) { assign() })
					}
					if remaining == 0 && len(a.IdleNodes()) == len(a.Nodes()) {
						a.Release()
					}
				}
				assign()
			},
		})
		s.Run()
		if remaining != 0 {
			b.Fatal("campaign incomplete")
		}
	}
	b.ReportMetric(50_000, "tasks")
}

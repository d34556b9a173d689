package ckpt

import (
	"testing"
	"time"

	"fairflow/internal/simapp"
)

// gsApp adapts the Gray–Scott solver to the App interface.
type gsApp struct{ g *simapp.GrayScott }

func (a gsApp) Step() { a.g.Step() }
func (a gsApp) Snapshot() (any, error) {
	return a.g.Snapshot(), nil
}
func (a gsApp) Restore(s any) error { return a.g.Restore(s.(simapp.Snapshot)) }

func newGS(t *testing.T) *simapp.GrayScott {
	t.Helper()
	g, err := simapp.NewGrayScott(simapp.DefaultGrayScott(32, 5))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fakeClock advances a fixed amount per call, making real-runner timing
// deterministic.
func fakeClock(stepMS int) Clock {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Duration(stepMS) * time.Millisecond)
		return t
	}
}

func TestRealRunnerFixedInterval(t *testing.T) {
	g := newGS(t)
	r := &RealRunner{App: gsApp{g}, Policy: FixedInterval{Every: 4}, Keep: 2, Now: fakeClock(10)}
	stats, retained, err := r.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsCompleted != 12 || g.Snapshot().Step != 12 {
		t.Fatalf("steps: %d / %d", stats.StepsCompleted, g.Snapshot().Step)
	}
	if stats.CheckpointsWritten != 3 {
		t.Fatalf("checkpoints: %d", stats.CheckpointsWritten)
	}
	if len(retained) != 2 || retained[1].Step != 12 || retained[0].Step != 8 {
		t.Fatalf("retained: %+v", retained)
	}
	if stats.ComputeSeconds <= 0 || stats.CheckpointSeconds <= 0 {
		t.Fatalf("timing: %+v", stats)
	}
}

func TestRealRunnerRestartEquivalence(t *testing.T) {
	g := newGS(t)
	r := &RealRunner{App: gsApp{g}, Policy: FixedInterval{Every: 5}, Keep: 1}
	_, retained, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	// Continue to step 15, remember the state.
	for i := 0; i < 5; i++ {
		g.Step()
	}
	want := g.Checksum()

	// Rewind to the step-10 checkpoint through the App and recompute.
	last := retained[len(retained)-1]
	if err := r.App.Restore(last.Snapshot); err != nil || last.Step != 10 {
		t.Fatalf("restored to %d, %v", last.Step, err)
	}
	if step := g.Snapshot().Step; step != 10 {
		t.Fatalf("app at step %d after restore", step)
	}
	for i := 0; i < 5; i++ {
		g.Step()
	}
	if g.Checksum() != want {
		t.Fatal("restart diverged from the original trajectory")
	}
}

func TestRealRunnerBudgetPolicyOnRealTimings(t *testing.T) {
	run := func(budget float64) int {
		g := newGS(t)
		r := &RealRunner{App: gsApp{g}, Policy: OverheadBudget{MaxOverhead: budget}, Now: fakeClock(10)}
		stats, _, err := r.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		return stats.CheckpointsWritten
	}
	tight, loose := run(0.02), run(0.50)
	if tight == 0 {
		t.Fatal("tight budget never wrote")
	}
	if tight >= loose {
		t.Fatalf("budget not monotone on real timings: %d @2%% vs %d @50%%", tight, loose)
	}
	if loose < 35 {
		t.Fatalf("50%% budget wrote only %d of 40", loose)
	}
}

func TestRealRunnerValidation(t *testing.T) {
	if _, _, err := (&RealRunner{}).Run(5); err == nil {
		t.Fatal("unconfigured runner accepted")
	}
	g := newGS(t)
	if _, _, err := (&RealRunner{App: gsApp{g}, Policy: FixedInterval{Every: 1}}).Run(0); err == nil {
		t.Fatal("zero steps accepted")
	}
}

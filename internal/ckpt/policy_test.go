package ckpt

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFixedInterval(t *testing.T) {
	p := FixedInterval{Every: 5}
	var fired []int
	for step := 1; step <= 20; step++ {
		if p.ShouldCheckpoint(State{Step: step}) {
			fired = append(fired, step)
		}
	}
	want := []int{5, 10, 15, 20}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v", fired)
		}
	}
	if (FixedInterval{Every: 0}).ShouldCheckpoint(State{Step: 5}) {
		t.Fatal("disabled interval fired")
	}
}

func TestOverheadBudgetFirstWriteAlwaysAllowed(t *testing.T) {
	p := OverheadBudget{MaxOverhead: 0.01}
	if !p.ShouldCheckpoint(State{Step: 1, Elapsed: 100, LastWriteSeconds: 0}) {
		t.Fatal("first write denied")
	}
}

func TestOverheadBudgetRespectsBudget(t *testing.T) {
	p := OverheadBudget{MaxOverhead: 0.10}
	// Elapsed 1000s, spent 50s on ckpt, next write ~50s: projected
	// (50+50)/(1000+50) ≈ 9.5% → allowed.
	ok := p.ShouldCheckpoint(State{Elapsed: 1000, CheckpointTime: 50, LastWriteSeconds: 50})
	if !ok {
		t.Fatal("write within budget denied")
	}
	// Spent 100s already: projected (100+50)/(1000+50) ≈ 14% → denied.
	if p.ShouldCheckpoint(State{Elapsed: 1000, CheckpointTime: 100, LastWriteSeconds: 50}) {
		t.Fatal("write over budget allowed")
	}
}

func TestOverheadBudgetZeroDisabled(t *testing.T) {
	if (OverheadBudget{}).ShouldCheckpoint(State{Elapsed: 100}) {
		t.Fatal("zero budget fired")
	}
}

func TestOverheadBudgetMonotoneInBudget(t *testing.T) {
	// Property: if a state passes at budget b, it passes at any b' ≥ b.
	f := func(elRaw, ckRaw, lwRaw uint16, bRaw, bRaw2 uint8) bool {
		st := State{
			Elapsed:          float64(elRaw) + 1,
			CheckpointTime:   float64(ckRaw),
			LastWriteSeconds: float64(lwRaw) + 1,
		}
		b1 := float64(bRaw%100+1) / 100
		b2 := b1 + float64(bRaw2%100)/100
		p1 := OverheadBudget{MaxOverhead: b1}
		p2 := OverheadBudget{MaxOverhead: b2}
		if p1.ShouldCheckpoint(st) && !p2.ShouldCheckpoint(st) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMinGap(t *testing.T) {
	p := MinGap{Gap: 300}
	if p.ShouldCheckpoint(State{SinceCheckpoint: 200}) {
		t.Fatal("fired early")
	}
	if !p.ShouldCheckpoint(State{SinceCheckpoint: 301}) {
		t.Fatal("did not fire after gap")
	}
	if (MinGap{}).ShouldCheckpoint(State{SinceCheckpoint: 1e9}) {
		t.Fatal("disabled gap fired")
	}
}

func TestFailureAwareSpikesTrigger(t *testing.T) {
	p := &FailureAware{SpikeFactor: 3}
	// Not enough observations yet.
	if p.ShouldCheckpoint(State{LastWriteSeconds: 100}) {
		t.Fatal("fired without baseline")
	}
	p.Observe(10)
	p.Observe(12)
	if p.ShouldCheckpoint(State{LastWriteSeconds: 20}) {
		t.Fatal("fired on a normal write")
	}
	if !p.ShouldCheckpoint(State{LastWriteSeconds: 100}) {
		t.Fatal("did not fire on a 10× spike")
	}
}

func TestAnyOfAllOfComposition(t *testing.T) {
	fire := FixedInterval{Every: 1}  // always fires
	never := FixedInterval{Every: 0} // never fires
	st := State{Step: 3}
	if !(AnyOf{Policies: []Policy{never, fire}}).ShouldCheckpoint(st) {
		t.Fatal("AnyOf missed a firing member")
	}
	if (AnyOf{Policies: []Policy{never, never}}).ShouldCheckpoint(st) {
		t.Fatal("AnyOf fired with no firing member")
	}
}

func TestPolicyNames(t *testing.T) {
	names := []string{
		FixedInterval{Every: 5}.Name(),
		OverheadBudget{MaxOverhead: 0.1}.Name(),
		MinGap{Gap: 60}.Name(),
		(&FailureAware{SpikeFactor: 3}).Name(),
		AnyOf{Policies: []Policy{FixedInterval{Every: 2}, MinGap{Gap: 1}}}.Name(),
	}
	for _, n := range names {
		if n == "" {
			t.Fatal("empty policy name")
		}
	}
	if !strings.Contains(names[1], "10%") {
		t.Fatalf("budget name: %s", names[1])
	}
	if !strings.Contains(names[4], ", ") {
		t.Fatalf("composite name: %s", names[4])
	}
}

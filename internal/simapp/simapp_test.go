package simapp

import (
	"math"
	"testing"

	"fairflow/internal/expt"
)

func TestNewGrayScottValidation(t *testing.T) {
	if _, err := NewGrayScott(DefaultGrayScott(4, 1)); err == nil {
		t.Fatal("tiny grid accepted")
	}
}

func TestGrayScottEvolvesAndStaysBounded(t *testing.T) {
	g, err := NewGrayScott(DefaultGrayScott(64, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := g.Checksum()
	for i := 0; i < 50; i++ {
		g.Step()
	}
	if g.step != 50 {
		t.Fatalf("steps = %d", g.step)
	}
	if g.Checksum() == before {
		t.Fatal("field did not evolve")
	}
	min, max := g.FieldStats()
	if min < -0.1 || max > 1.5 || math.IsNaN(min) || math.IsNaN(max) {
		t.Fatalf("V field unstable: [%v, %v]", min, max)
	}
	if g.Mass() <= 0 {
		t.Fatal("V mass vanished: the reaction never spread")
	}
}

func TestGrayScottDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) float64 {
		cfg := DefaultGrayScott(48, 7)
		cfg.Workers = workers
		g, err := NewGrayScott(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			g.Step()
		}
		return g.Checksum()
	}
	if run(1) != run(4) {
		t.Fatal("domain decomposition changed the answer")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	g, _ := NewGrayScott(DefaultGrayScott(32, 3))
	for i := 0; i < 10; i++ {
		g.Step()
	}
	snap := g.Snapshot()
	mid := g.Checksum()
	for i := 0; i < 10; i++ {
		g.Step()
	}
	after20 := g.Checksum()

	if err := g.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if g.Checksum() != mid || g.step != 10 {
		t.Fatal("restore did not reproduce snapshot state")
	}
	// Recompute: same trajectory.
	for i := 0; i < 10; i++ {
		g.Step()
	}
	if g.Checksum() != after20 {
		t.Fatal("restart diverged from original trajectory")
	}
}

func TestRestoreSizeMismatch(t *testing.T) {
	g, _ := NewGrayScott(DefaultGrayScott(32, 3))
	if err := g.Restore(Snapshot{U: []float64{1}, V: []float64{1}}); err == nil {
		t.Fatal("mismatched snapshot accepted")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	g, _ := NewGrayScott(DefaultGrayScott(32, 4))
	snap := g.Snapshot()
	g.Step()
	g2, _ := NewGrayScott(DefaultGrayScott(32, 4))
	if err := g2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if g2.Checksum() == g.Checksum() {
		t.Fatal("snapshot aliased live state")
	}
}

func TestProfileValidate(t *testing.T) {
	good := SummitProfile(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Steps = 0
	if bad.Validate() == nil {
		t.Fatal("zero steps accepted")
	}
	bad = good
	bad.Nodes = 0
	if bad.Validate() == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = good
	bad.MeanStepSeconds = 0
	if bad.Validate() == nil {
		t.Fatal("zero step time accepted")
	}
	bad = good
	bad.BytesPerCheckpoint = -1
	if bad.Validate() == nil {
		t.Fatal("negative payload accepted")
	}
}

func TestStepTimesShapeAndDeterminism(t *testing.T) {
	p := SummitProfile(9)
	a, err := p.StepTimes()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 50 {
		t.Fatalf("steps = %d", len(a))
	}
	for _, v := range a {
		if v <= 0 {
			t.Fatalf("non-positive step time %v", v)
		}
	}
	b, _ := p.StepTimes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	// Median should be near the configured mean (lognormal median = e^mu).
	med := expt.Summarize(a).Median
	if med < 40 || med > 90 {
		t.Fatalf("median step time %v far from 60", med)
	}
}

func TestStepTimesComputeScale(t *testing.T) {
	p := SummitProfile(9)
	base, _ := p.StepTimes()
	p.ComputeScale = 2
	scaled, _ := p.StepTimes()
	if math.Abs(scaled[0]/base[0]-2) > 1e-9 {
		t.Fatalf("scale not applied: %v vs %v", scaled[0], base[0])
	}
}

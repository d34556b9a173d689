package iorf

import (
	"math"
	"runtime"
	"testing"

	"fairflow/internal/expt"
)

// linearData builds y = 3*x0 − 2*x1 + noise with distractors.
func linearData(n, features int, noise float64, seed int64) ([][]float64, []float64) {
	rng := expt.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, features)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = 3*row[0] - 2*row[1] + rng.NormFloat64()*noise
	}
	return X, y
}

func smallForestConfig(seed int64) ForestConfig {
	return ForestConfig{
		Trees: 30,
		Tree:  TreeConfig{MaxDepth: 8, MinLeaf: 3, MTry: 3},
		Seed:  seed,
	}
}

func TestTrainForestValidation(t *testing.T) {
	X, y := linearData(50, 4, 0.1, 1)
	if _, err := TrainForest(nil, nil, nil, smallForestConfig(1)); err == nil {
		t.Fatal("empty X accepted")
	}
	if _, err := TrainForest(X, y[:10], nil, smallForestConfig(1)); err == nil {
		t.Fatal("mismatched y accepted")
	}
	cfg := smallForestConfig(1)
	cfg.Trees = 0
	if _, err := TrainForest(X, y, nil, cfg); err == nil {
		t.Fatal("zero trees accepted")
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := TrainForest(ragged, []float64{1, 2}, nil, smallForestConfig(1)); err == nil {
		t.Fatal("ragged X accepted")
	}
}

func TestForestLearnsAndRanksFeatures(t *testing.T) {
	X, y := linearData(400, 8, 0.2, 2)
	f, err := TrainForest(X, y, nil, smallForestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Importance sums to 1 and is dominated by features 0 and 1.
	var sum float64
	for _, v := range f.Importance {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sum = %v", sum)
	}
	if f.Importance[0]+f.Importance[1] < 0.6 {
		t.Fatalf("signal features importance = %v", f.Importance)
	}
	// Prediction should beat the trivial mean predictor by a wide margin.
	var varY float64
	meanY := expt.Mean(y)
	for _, v := range y {
		varY += (v - meanY) * (v - meanY)
	}
	varY /= float64(len(y))
	if f.OOBError > 0.6*varY {
		t.Fatalf("OOB MSE %.3f vs var(y) %.3f", f.OOBError, varY)
	}
}

func TestForestDeterministicAcrossParallelism(t *testing.T) {
	X, y := linearData(150, 5, 0.3, 4)
	// Tree builds run GOMAXPROCS at a time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := TrainForest(X, y, nil, smallForestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	b, err := TrainForest(X, y, nil, smallForestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for f := range a.Importance {
		if math.Abs(a.Importance[f]-b.Importance[f]) > 1e-12 {
			t.Fatalf("importance differs across parallelism at feature %d", f)
		}
	}
	probe := X[0]
	if predict(a, probe) != predict(b, probe) {
		t.Fatal("predictions differ across parallelism")
	}
}

func TestForestDifferentSeedsDiffer(t *testing.T) {
	X, y := linearData(150, 5, 0.3, 4)
	a, _ := TrainForest(X, y, nil, smallForestConfig(1))
	b, _ := TrainForest(X, y, nil, smallForestConfig(2))
	same := true
	for f := range a.Importance {
		if a.Importance[f] != b.Importance[f] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestForestWeightsSteerFeatureChoice(t *testing.T) {
	// Two equally predictive duplicate features; weights should steer splits
	// toward the heavily weighted one.
	rng := expt.NewRNG(5)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		v := rng.NormFloat64()
		X[i] = []float64{v, v, rng.NormFloat64()}
		y[i] = v
	}
	cfg := smallForestConfig(6)
	cfg.Tree.MTry = 1 // force the sampler to decide which feature is seen
	w := []float64{100, 0.01, 0.01}
	f, err := TrainForest(X, y, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Importance[0] < 5*f.Importance[1] {
		t.Fatalf("weights ignored: %v", f.Importance)
	}
}

func TestIRFIterationsConcentrateImportance(t *testing.T) {
	X, y := linearData(300, 12, 0.3, 8)
	cfg := IRFConfig{Forest: smallForestConfig(9), Iterations: 3, WeightFloor: 0.05}
	m, err := TrainIRF(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.History) != 3 || len(m.OOBHistory) != 3 {
		t.Fatalf("history lengths: %d, %d", len(m.History), len(m.OOBHistory))
	}
	// Concentration: the sum of squared importances, the inverse effective
	// feature count.
	concentration := func(importance []float64) float64 {
		var s float64
		for _, v := range importance {
			s += v * v
		}
		return s
	}
	first := concentration(m.History[0])
	last := concentration(m.History[2])
	if last < first {
		t.Fatalf("iterations diluted importance: %.4f → %.4f", first, last)
	}
	// The two causal features should top the final ranking.
	top := 0
	second := 1
	for f, v := range m.Importance {
		if v > m.Importance[top] {
			second = top
			top = f
		} else if f != top && v > m.Importance[second] {
			second = f
		}
	}
	if !(top == 0 && second == 1 || top == 1 && second == 0) {
		t.Fatalf("final top-2 features = %d, %d; importance %v", top, second, m.Importance)
	}
}

func TestIRFValidation(t *testing.T) {
	X, y := linearData(50, 4, 0.1, 1)
	cfg := IRFConfig{Forest: smallForestConfig(1), Iterations: 0}
	if _, err := TrainIRF(X, y, cfg); err == nil {
		t.Fatal("zero iterations accepted")
	}
}

func TestNextWeightsFloor(t *testing.T) {
	w := nextWeights([]float64{0.9, 0.1, 0}, 0.3)
	if w[2] <= 0 {
		t.Fatal("floor did not keep zero-importance feature drawable")
	}
	if w[0] < w[1] || w[1] < w[2] {
		t.Fatalf("weights not ordered by importance: %v", w)
	}
	if nextWeights(nil, 0.3) != nil {
		t.Fatal("nil importance should give nil weights")
	}
}

// predict averages the forest's tree predictions for one sample.
func predict(f *Forest, x []float64) float64 {
	var sum float64
	for _, t := range f.Trees {
		sum += t.Predict(x)
	}
	return sum / float64(len(f.Trees))
}

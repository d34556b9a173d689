package iorf

import (
	"math"
	"testing"

	"fairflow/internal/expt"
)

// chainData builds a feature chain: f0 ~ N(0,1), f1 = f0 + ε, f2 = f1 + ε,
// plus independent distractors. iRF-LOOP should recover the chain edges.
func chainData(n int, distractors int, seed int64) ([][]float64, []string) {
	rng := expt.NewRNG(seed)
	total := 3 + distractors
	X := make([][]float64, n)
	names := make([]string, total)
	names[0], names[1], names[2] = "f0", "f1", "f2"
	for d := 0; d < distractors; d++ {
		names[3+d] = "noise"
	}
	for i := range X {
		row := make([]float64, total)
		row[0] = rng.NormFloat64()
		row[1] = row[0] + 0.2*rng.NormFloat64()
		row[2] = row[1] + 0.2*rng.NormFloat64()
		for d := 0; d < distractors; d++ {
			row[3+d] = rng.NormFloat64()
		}
		X[i] = row
	}
	return X, names
}

func loopConfig(seed int64) LoopConfig {
	return LoopConfig{
		IRF: IRFConfig{
			Forest:      ForestConfig{Trees: 20, Tree: TreeConfig{MaxDepth: 6, MinLeaf: 3, MTry: 2}, Seed: seed},
			Iterations:  2,
			WeightFloor: 0.05,
		},
	}
}

func TestRunLOOPShapeAndInvariants(t *testing.T) {
	X, names := chainData(200, 3, 1)
	net, err := RunLOOP(X, names, loopConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	n := len(names)
	if len(net.Adjacency) != n || len(net.RunSeconds) != n {
		t.Fatalf("network shape: %d rows", len(net.Adjacency))
	}
	for i, row := range net.Adjacency {
		if len(row) != n {
			t.Fatalf("row %d width %d", i, len(row))
		}
		if row[i] != 0 {
			t.Fatalf("diagonal not zero at %d: %v", i, row[i])
		}
		var sum float64
		for _, w := range row {
			if w < 0 {
				t.Fatalf("negative weight in row %d", i)
			}
			sum += w
		}
		if sum > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestRunLOOPRecoversChainEdges(t *testing.T) {
	X, names := chainData(250, 4, 3)
	net, err := RunLOOP(X, names, loopConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// Predicting f1, the strongest predictors must be f0 or f2 (its chain
	// neighbours), never a distractor.
	row := net.Adjacency[1]
	best := 0
	for f, w := range row {
		if w > row[best] {
			best = f
		}
	}
	if best != 0 && best != 2 {
		t.Fatalf("f1's best predictor is feature %d (%s): %v", best, names[best], row)
	}
	// Distractor importance should be collectively small.
	var distractor float64
	for f := 3; f < len(names); f++ {
		distractor += row[f]
	}
	if distractor > 0.3 {
		t.Fatalf("distractors carry %.2f of f1's importance", distractor)
	}
}

func TestRunLOOPValidation(t *testing.T) {
	if _, err := RunLOOP(nil, nil, loopConfig(1)); err == nil {
		t.Fatal("empty matrix accepted")
	}
	X := [][]float64{{1}, {2}}
	if _, err := RunLOOP(X, nil, loopConfig(1)); err == nil {
		t.Fatal("single feature accepted")
	}
	X2 := [][]float64{{1, 2}, {2, 3}}
	if _, err := RunLOOP(X2, []string{"only-one"}, loopConfig(1)); err == nil {
		t.Fatal("name/width mismatch accepted")
	}
}

func TestRunLOOPDefaultNames(t *testing.T) {
	X, _ := chainData(60, 0, 5)
	net, err := RunLOOP(X, nil, loopConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if net.FeatureNames[0] != "f0000" {
		t.Fatalf("default names: %v", net.FeatureNames[:3])
	}
}

func TestLoopFitFeatureTargetBounds(t *testing.T) {
	X, _ := chainData(50, 0, 7)
	if _, err := LoopFitFeature(X, -1, loopConfig(1).IRF); err == nil {
		t.Fatal("negative target accepted")
	}
	if _, err := LoopFitFeature(X, 99, loopConfig(1).IRF); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestTopEdgesSortedDescending(t *testing.T) {
	X, names := chainData(150, 2, 8)
	net, err := RunLOOP(X, names, loopConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	edges := net.TopEdges(10)
	if len(edges) == 0 {
		t.Fatal("no edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].Weight > edges[i-1].Weight {
			t.Fatal("edges not sorted")
		}
	}
	huge := net.TopEdges(1 << 20)
	if len(huge) == 0 || len(huge) > len(names)*len(names) {
		t.Fatalf("oversized k returned %d edges", len(huge))
	}
}

func TestRunLOOPDeterministic(t *testing.T) {
	X, names := chainData(100, 2, 10)
	a, err := RunLOOP(X, names, loopConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLOOP(X, names, loopConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Adjacency {
		for j := range a.Adjacency[i] {
			if a.Adjacency[i][j] != b.Adjacency[i][j] {
				t.Fatalf("LOOP not deterministic at (%d,%d)", i, j)
			}
		}
	}
}

package iorf

import (
	"testing"

	"fairflow/internal/expt"
)

func benchData(n, features int) ([][]float64, []float64) {
	rng := expt.NewRNG(1)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, features)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = 2*row[0] - row[1] + 0.3*rng.NormFloat64()
	}
	return X, y
}

func BenchmarkTrainForest(b *testing.B) {
	X, y := benchData(400, 16)
	cfg := ForestConfig{Trees: 30, Tree: TreeConfig{MaxDepth: 10, MinLeaf: 3, MTry: 4}, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainForest(X, y, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainIRF3Iterations(b *testing.B) {
	X, y := benchData(300, 16)
	cfg := IRFConfig{
		Forest:      ForestConfig{Trees: 20, Tree: TreeConfig{MaxDepth: 8, MinLeaf: 3, MTry: 4}, Seed: 1},
		Iterations:  3,
		WeightFloor: 0.05,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainIRF(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLOOPSmall(b *testing.B) {
	X, _ := benchData(150, 10)
	cfg := LoopConfig{
		IRF: IRFConfig{
			Forest:      ForestConfig{Trees: 10, Tree: TreeConfig{MaxDepth: 6, MinLeaf: 3, MTry: 3}, Seed: 1},
			Iterations:  2,
			WeightFloor: 0.05,
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLOOP(X, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

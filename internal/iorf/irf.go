package iorf

import (
	"fmt"

	"fairflow/internal/expt"
)

// IRFConfig parameterises an iterative random forest.
type IRFConfig struct {
	// Forest configures each iteration's forest.
	Forest ForestConfig
	// Iterations is the number of re-weighted fits (≥1). Iteration 1 uses
	// uniform feature weights; iteration k+1 weights features by iteration
	// k's importance — the Basu et al. scheme that stabilises high-order
	// interactions.
	Iterations int
	// WeightFloor keeps every feature minimally drawable so early mistakes
	// are recoverable; expressed as a fraction of the uniform weight.
	WeightFloor float64
}

// IRFModel is a trained iterative random forest.
type IRFModel struct {
	// Final is the last iteration's forest, used for prediction.
	Final *Forest
	// Importance is the final iteration's normalised feature importance.
	Importance []float64
	// History records each iteration's importance vector (History[0] is the
	// uniform-weight fit), exposing the stabilisation trajectory.
	History [][]float64
	// OOBHistory records each iteration's out-of-bag MSE.
	OOBHistory []float64
}

// TrainIRF runs the iterative random forest: fit, reweight by importance,
// refit. Each iteration derives an independent seed so results do not depend
// on build parallelism.
func TrainIRF(X [][]float64, y []float64, cfg IRFConfig) (*IRFModel, error) {
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("iorf: iterations must be ≥1, got %d", cfg.Iterations)
	}
	if cfg.WeightFloor < 0 {
		cfg.WeightFloor = 0
	}
	m := &IRFModel{}
	var weights []float64 // nil = uniform for iteration 0
	for it := 0; it < cfg.Iterations; it++ {
		fcfg := cfg.Forest
		fcfg.Seed = expt.SplitSeed(cfg.Forest.Seed, it)
		forest, err := TrainForest(X, y, weights, fcfg)
		if err != nil {
			return nil, fmt.Errorf("iorf: iteration %d: %w", it, err)
		}
		m.Final = forest
		m.Importance = forest.Importance
		m.History = append(m.History, append([]float64(nil), forest.Importance...))
		m.OOBHistory = append(m.OOBHistory, forest.OOBError)

		if it < cfg.Iterations-1 {
			weights = nextWeights(forest.Importance, cfg.WeightFloor)
		}
	}
	return m, nil
}

// nextWeights converts an importance vector into sampling weights with a
// floor: w_f = imp_f + floor/n (so zero-importance features keep a small
// drawing probability).
func nextWeights(importance []float64, floor float64) []float64 {
	n := len(importance)
	if n == 0 {
		return nil
	}
	base := floor / float64(n)
	w := make([]float64, n)
	for i, v := range importance {
		w[i] = v + base
	}
	return w
}

package iorf

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"fairflow/internal/expt"
)

// ForestConfig parameterises one random forest.
type ForestConfig struct {
	// Trees is the ensemble size.
	Trees int
	// Tree bounds individual tree growth.
	Tree TreeConfig
	// Seed drives bootstrap and feature sampling; each tree derives an
	// independent stream, so forests are reproducible regardless of build
	// parallelism.
	Seed int64
}

// Forest is a trained ensemble.
type Forest struct {
	Trees []*Tree
	// Importance is the per-feature impurity-decrease importance summed
	// over trees and normalised to sum to 1 (all-zero if no splits).
	Importance []float64
	// OOBError is the out-of-bag mean squared error.
	OOBError float64
}

// TrainForest fits a regression random forest of X (sample-major) against
// y, with per-feature sampling weights w (nil = uniform) — the hook iRF uses
// to bias later iterations toward previously important features.
func TrainForest(X [][]float64, y []float64, w []float64, cfg ForestConfig) (*Forest, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("iorf: X has %d rows, y has %d", len(X), len(y))
	}
	if len(X[0]) == 0 {
		return nil, fmt.Errorf("iorf: no features")
	}
	if cfg.Trees < 1 {
		return nil, fmt.Errorf("iorf: forest needs ≥1 tree")
	}
	nSamples := len(X)
	nFeatures := len(X[0])
	for i, row := range X {
		if len(row) != nFeatures {
			return nil, fmt.Errorf("iorf: row %d has %d features, want %d", i, len(row), nFeatures)
		}
	}

	par := runtime.GOMAXPROCS(0)

	f := &Forest{Trees: make([]*Tree, cfg.Trees)}
	// Per-sample OOB accumulators.
	oobSum := make([]float64, nSamples)
	oobCount := make([]int, nSamples)
	var mu sync.Mutex

	sem := make(chan struct{}, par)
	errCh := make(chan error, cfg.Trees)
	var wg sync.WaitGroup
	for ti := 0; ti < cfg.Trees; ti++ {
		ti := ti
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(expt.SplitSeed(cfg.Seed, ti)))
			idx := make([]int, nSamples)
			inBag := make([]bool, nSamples)
			for i := range idx {
				j := rng.Intn(nSamples)
				idx[i] = j
				inBag[j] = true
			}
			tree, err := growTree(X, y, idx, cfg.Tree, w, rng)
			if err != nil {
				errCh <- err
				return
			}
			f.Trees[ti] = tree
			mu.Lock()
			for s := 0; s < nSamples; s++ {
				if !inBag[s] {
					oobSum[s] += tree.Predict(X[s])
					oobCount[s]++
				}
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}

	// Aggregate importance.
	f.Importance = make([]float64, nFeatures)
	var total float64
	for _, t := range f.Trees {
		for fi, v := range t.importance {
			f.Importance[fi] += v
			total += v
		}
	}
	if total > 0 {
		for fi := range f.Importance {
			f.Importance[fi] /= total
		}
	}

	// OOB MSE over samples that were out of bag at least once.
	var sse float64
	n := 0
	for s := 0; s < nSamples; s++ {
		if oobCount[s] > 0 {
			pred := oobSum[s] / float64(oobCount[s])
			d := pred - y[s]
			sse += d * d
			n++
		}
	}
	if n > 0 {
		f.OOBError = sse / float64(n)
	}
	return f, nil
}

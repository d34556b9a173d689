package iorf

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"fairflow/internal/expt"
)

// LoopConfig parameterises an iRF-LOOP run.
type LoopConfig struct {
	// IRF configures each per-feature model.
	IRF IRFConfig
}

// Network is the iRF-LOOP output: a directed weighted adjacency over
// features. Adjacency[i][j] is the (normalised) importance of feature j in
// predicting feature i — an edge j → i in the predictive-expression-network
// reading.
type Network struct {
	FeatureNames []string
	Adjacency    [][]float64
	// RunSeconds records the wall time of each per-feature fit; its heavy
	// tail is the straggler phenomenon the paper's Fig. 6 baseline suffers
	// from.
	RunSeconds []float64
}

// Edge is one directed network edge.
type Edge struct {
	From, To string
	Weight   float64
}

// RunLOOP executes iterative random forest leave-one-out prediction over the
// sample-major matrix X: for each feature f, fit iRF with column f as the
// response and all other columns as predictors, then assemble the n×n
// importance matrix with row f holding feature f's predictors' importances
// (normalised to sum to 1; the diagonal is zero).
func RunLOOP(X [][]float64, names []string, cfg LoopConfig) (*Network, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("iorf: empty matrix")
	}
	n := len(X[0])
	if n < 2 {
		return nil, fmt.Errorf("iorf: LOOP needs ≥2 features, got %d", n)
	}
	if names != nil && len(names) != n {
		return nil, fmt.Errorf("iorf: %d names for %d features", len(names), n)
	}
	if names == nil {
		names = make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("f%04d", i)
		}
	}
	par := runtime.GOMAXPROCS(0)

	net := &Network{
		FeatureNames: names,
		Adjacency:    make([][]float64, n),
		RunSeconds:   make([]float64, n),
	}

	sem := make(chan struct{}, par)
	errCh := make(chan error, n)
	var wg sync.WaitGroup
	for f := 0; f < n; f++ {
		f := f
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			row, err := LoopFitFeature(X, f, cfg.IRF)
			net.RunSeconds[f] = time.Since(start).Seconds()
			if err != nil {
				errCh <- fmt.Errorf("iorf: feature %d (%s): %w", f, names[f], err)
				return
			}
			net.Adjacency[f] = row
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	return net, nil
}

// LoopFitFeature fits one leave-one-out model (response = column target) and
// returns the full-width importance row: n entries, zero at the target
// index, the rest normalised to sum to 1 (or all zero if the model found no
// structure). This is the single "parameter" unit the Cheetah campaign of
// Section V-D sweeps over — one iRF run per feature.
func LoopFitFeature(X [][]float64, target int, cfg IRFConfig) ([]float64, error) {
	nSamples := len(X)
	n := len(X[0])
	if target < 0 || target >= n {
		return nil, fmt.Errorf("iorf: target %d out of range", target)
	}
	// Assemble predictors (all columns but target) and response.
	Xp := make([][]float64, nSamples)
	y := make([]float64, nSamples)
	for s := 0; s < nSamples; s++ {
		row := make([]float64, 0, n-1)
		for f := 0; f < n; f++ {
			if f == target {
				continue
			}
			row = append(row, X[s][f])
		}
		Xp[s] = row
		y[s] = X[s][target]
	}
	icfg := cfg
	icfg.Forest.Seed = expt.SplitSeed(cfg.Forest.Seed, target)
	m, err := TrainIRF(Xp, y, icfg)
	if err != nil {
		return nil, err
	}
	// Re-expand to n entries with zero at the diagonal.
	row := make([]float64, n)
	j := 0
	var sum float64
	for f := 0; f < n; f++ {
		if f == target {
			continue
		}
		row[f] = m.Importance[j]
		sum += row[f]
		j++
	}
	if sum > 0 {
		for f := range row {
			row[f] /= sum
		}
	}
	return row, nil
}

// TopEdges returns the k strongest directed edges, descending by weight.
func (n *Network) TopEdges(k int) []Edge {
	var edges []Edge
	for i, row := range n.Adjacency {
		for j, w := range row {
			if w > 0 {
				edges = append(edges, Edge{From: n.FeatureNames[j], To: n.FeatureNames[i], Weight: w})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].Weight != edges[b].Weight {
			return edges[a].Weight > edges[b].Weight
		}
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	if k > len(edges) {
		k = len(edges)
	}
	return edges[:k]
}

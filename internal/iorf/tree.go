// Package iorf implements iterative random forests (iRF, Basu et al. 2018)
// and the iRF-LOOP all-to-all network construction (Cliff et al. 2019) the
// paper's Section II-B/V-D workflow runs at scale: regression CART trees
// with weighted feature sampling, bootstrap forests, iterative feature
// re-weighting, and the leave-one-out-prediction driver that turns an n×m
// feature matrix into an n×n directed importance network.
package iorf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// TreeConfig bounds single-tree growth.
type TreeConfig struct {
	// MaxDepth limits tree depth (root = depth 0). ≤0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples in a leaf (≥1).
	MinLeaf int
	// MTry is the number of candidate features per split (≥1).
	MTry int
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int // child indices into Tree.nodes
	right     int
	value     float64 // leaf prediction (mean of y)
}

// Tree is a trained regression tree stored as a flat node array.
type Tree struct {
	nodes []node
	// importance[f] is the total weighted impurity decrease attributed to
	// feature f in this tree.
	importance []float64
}

// Predict returns the tree's prediction for one sample.
func (t *Tree) Predict(x []float64) float64 {
	i := 0
	for {
		n := t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// growTree builds one regression tree on the sample indices idx of (X, y),
// choosing MTry candidate features per split by weighted sampling without
// replacement using weights w (nil = uniform).
func growTree(X [][]float64, y []float64, idx []int, cfg TreeConfig, w []float64, rng *rand.Rand) (*Tree, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("iorf: empty training set")
	}
	nFeatures := len(X[0])
	if cfg.MTry < 1 || cfg.MTry > nFeatures {
		cfg.MTry = int(math.Sqrt(float64(nFeatures)))
		if cfg.MTry < 1 {
			cfg.MTry = 1
		}
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	t := &Tree{importance: make([]float64, nFeatures)}
	if err := t.split(X, y, idx, 0, cfg, w, rng); err != nil {
		return nil, err
	}
	return t, nil
}

// split recursively grows the subtree for idx at the given depth, appending
// nodes and returning via t.nodes. It writes the new node at the end of
// t.nodes and returns its index through the tree structure.
func (t *Tree) split(X [][]float64, y []float64, idx []int, depth int, cfg TreeConfig, w []float64, rng *rand.Rand) error {
	mean, sse := meanSSE(y, idx)
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, value: mean})

	if len(idx) < 2*cfg.MinLeaf || sse <= 1e-12 || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return nil
	}

	candidates := weightedSampleWithoutReplacement(len(X[0]), cfg.MTry, w, rng)
	bestGain := 0.0
	bestFeature := -1
	bestThreshold := 0.0
	for _, f := range candidates {
		gain, thr, ok := bestSplitOnFeature(X, y, idx, f, cfg.MinLeaf)
		if ok && gain > bestGain {
			bestGain, bestFeature, bestThreshold = gain, f, thr
		}
	}
	if bestFeature < 0 {
		return nil
	}

	var left, right []int
	for _, i := range idx {
		if X[i][bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return nil
	}

	t.importance[bestFeature] += bestGain
	t.nodes[self].feature = bestFeature
	t.nodes[self].threshold = bestThreshold

	t.nodes[self].left = len(t.nodes)
	if err := t.split(X, y, left, depth+1, cfg, w, rng); err != nil {
		return err
	}
	t.nodes[self].right = len(t.nodes)
	return t.split(X, y, right, depth+1, cfg, w, rng)
}

// meanSSE computes the mean of y over idx and the sum of squared errors
// around it.
func meanSSE(y []float64, idx []int) (mean, sse float64) {
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	return mean, sse
}

// bestSplitOnFeature scans all thresholds of feature f over idx and returns
// the best SSE reduction, the threshold achieving it, and whether any valid
// split exists.
func bestSplitOnFeature(X [][]float64, y []float64, idx []int, f, minLeaf int) (gain, threshold float64, ok bool) {
	n := len(idx)
	order := make([]int, n)
	copy(order, idx)
	sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })

	// Prefix sums of y and y² in sorted order enable O(1) SSE of both sides
	// at every split point.
	var totalSum, totalSq float64
	for _, i := range order {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(n)

	var leftSum, leftSq float64
	best := 0.0
	bestThr := 0.0
	found := false
	for k := 0; k < n-1; k++ {
		i := order[k]
		leftSum += y[i]
		leftSq += y[i] * y[i]
		// Can't split between equal feature values.
		if X[order[k]][f] == X[order[k+1]][f] {
			continue
		}
		nl := k + 1
		nr := n - nl
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rightSum := totalSum - leftSum
		rightSq := totalSq - leftSq
		leftSSE := leftSq - leftSum*leftSum/float64(nl)
		rightSSE := rightSq - rightSum*rightSum/float64(nr)
		g := parentSSE - leftSSE - rightSSE
		if g > best {
			best = g
			bestThr = (X[order[k]][f] + X[order[k+1]][f]) / 2
			found = true
		}
	}
	return best, bestThr, found
}

// weightedSampleWithoutReplacement draws k distinct indices from [0, n)
// with probability proportional to w (nil or all-zero = uniform), using the
// Efraimidis–Spirakis exponential-keys method.
func weightedSampleWithoutReplacement(n, k int, w []float64, rng *rand.Rand) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	type keyed struct {
		idx int
		key float64
	}
	keys := make([]keyed, n)
	for i := 0; i < n; i++ {
		wi := 1.0
		if w != nil && i < len(w) {
			wi = w[i]
		}
		if wi <= 0 {
			// Zero-weight features remain drawable with vanishing priority
			// (random tiebreak), so an all-zero weight vector degrades to
			// uniform sampling rather than a fixed prefix.
			wi = 1e-12
		}
		// Key = Exp(w): smaller is better; equivalent to u^(1/w) ordering.
		keys[i] = keyed{i, rng.ExpFloat64() / wi}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key < keys[b].key })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = keys[i].idx
	}
	return out
}

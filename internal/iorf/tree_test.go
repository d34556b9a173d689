package iorf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fairflow/internal/expt"
)

// stepData builds y = 1{x0 > 0} with distractor features.
func stepData(n, features int, seed int64) ([][]float64, []float64) {
	rng := expt.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, features)
		for f := range row {
			row[f] = rng.NormFloat64()
		}
		X[i] = row
		if row[0] > 0 {
			y[i] = 1
		}
	}
	return X, y
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestGrowTreeLearnsStepFunction(t *testing.T) {
	X, y := stepData(400, 5, 1)
	rng := expt.NewRNG(2)
	tree, err := growTree(X, y, allIdx(400), TreeConfig{MinLeaf: 2, MTry: 5}, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, row := range X {
		pred := tree.Predict(row)
		if (pred > 0.5) == (y[i] > 0.5) {
			correct++
		}
	}
	if frac := float64(correct) / 400; frac < 0.95 {
		t.Fatalf("training accuracy %.2f", frac)
	}
	// Importance should be dominated by feature 0.
	best := 0
	for f, v := range tree.importance {
		if v > tree.importance[best] {
			best = f
		}
	}
	if best != 0 {
		t.Fatalf("most important feature = %d", best)
	}
}

func TestGrowTreeRespectsMaxDepth(t *testing.T) {
	X, y := stepData(200, 3, 3)
	rng := expt.NewRNG(4)
	tree, err := growTree(X, y, allIdx(200), TreeConfig{MaxDepth: 2, MinLeaf: 1, MTry: 3}, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := depth(tree); d > 2 {
		t.Fatalf("depth %d exceeds max 2", d)
	}
}

func TestGrowTreePureLeafStopsSplitting(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{5, 5, 5, 5}
	rng := expt.NewRNG(1)
	tree, err := growTree(X, y, allIdx(4), TreeConfig{MinLeaf: 1, MTry: 1}, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.nodes) != 1 {
		t.Fatalf("constant target grew %d nodes", len(tree.nodes))
	}
	if tree.Predict([]float64{99}) != 5 {
		t.Fatal("wrong leaf value")
	}
}

func TestGrowTreeEmptyIndexErrors(t *testing.T) {
	rng := expt.NewRNG(1)
	if _, err := growTree([][]float64{{1}}, []float64{1}, nil, TreeConfig{}, nil, rng); err == nil {
		t.Fatal("empty index accepted")
	}
}

func TestBestSplitOnFeatureKnownCase(t *testing.T) {
	// x = 0,1,2,3; y = 0,0,10,10 → best threshold 1.5, gain = parent SSE.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 10, 10}
	gain, thr, ok := bestSplitOnFeature(X, y, allIdx(4), 0, 1)
	if !ok {
		t.Fatal("no split found")
	}
	if math.Abs(thr-1.5) > 1e-12 {
		t.Fatalf("threshold = %v", thr)
	}
	if math.Abs(gain-100) > 1e-9 { // parent SSE = 4*25 = 100, children 0
		t.Fatalf("gain = %v", gain)
	}
}

func TestBestSplitRespectsMinLeaf(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 5, 5, 5}
	// minLeaf=2 forbids the 1|3 split; the best allowed is 2|2.
	_, thr, ok := bestSplitOnFeature(X, y, allIdx(4), 0, 2)
	if !ok {
		t.Fatal("no split found")
	}
	if math.Abs(thr-1.5) > 1e-12 {
		t.Fatalf("threshold = %v violates minLeaf", thr)
	}
}

func TestBestSplitConstantFeature(t *testing.T) {
	X := [][]float64{{7}, {7}, {7}}
	y := []float64{1, 2, 3}
	if _, _, ok := bestSplitOnFeature(X, y, allIdx(3), 0, 1); ok {
		t.Fatal("split found on constant feature")
	}
}

func TestWeightedSampleDistinctAndComplete(t *testing.T) {
	f := func(nRaw, kRaw uint8, seed int64) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		got := weightedSampleWithoutReplacement(n, k, nil, rng)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSampleReturnsAllWhenKGEN(t *testing.T) {
	rng := expt.NewRNG(1)
	got := weightedSampleWithoutReplacement(5, 10, nil, rng)
	if len(got) != 5 {
		t.Fatalf("got %d indices", len(got))
	}
}

func TestWeightedSampleBiasFollowsWeights(t *testing.T) {
	rng := expt.NewRNG(9)
	w := []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		got := weightedSampleWithoutReplacement(10, 1, w, rng)
		if got[0] == 0 {
			hits++
		}
	}
	if frac := float64(hits) / trials; frac < 0.85 {
		t.Fatalf("heavy feature drawn %.2f of the time", frac)
	}
}

func TestWeightedSampleZeroWeightsDegradeToUniform(t *testing.T) {
	rng := expt.NewRNG(10)
	w := make([]float64, 6)
	counts := make([]int, 6)
	for i := 0; i < 3000; i++ {
		got := weightedSampleWithoutReplacement(6, 1, w, rng)
		counts[got[0]]++
	}
	for f, c := range counts {
		if c < 300 {
			t.Fatalf("feature %d drawn only %d/3000 times under all-zero weights", f, c)
		}
	}
}

// depth returns the maximum depth of the tree.
func depth(t *Tree) int {
	var walk func(i, d int) int
	walk = func(i, d int) int {
		n := t.nodes[i]
		if n.feature < 0 {
			return d
		}
		l := walk(n.left, d+1)
		r := walk(n.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}

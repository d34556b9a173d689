package iorf

import (
	"math"
	"testing"
)

// twoClusterNetwork builds a hand-crafted network with two disjoint
// reciprocal pairs and one weak cross edge.
func twoClusterNetwork() *Network {
	return &Network{
		FeatureNames: []string{"a", "b", "c", "d"},
		Adjacency: [][]float64{
			{0, 0.9, 0.05, 0},
			{0.8, 0, 0, 0},
			{0, 0, 0, 0.7},
			{0, 0, 0.6, 0},
		},
	}
}

func TestNetworkStats(t *testing.T) {
	n := twoClusterNetwork()
	s := n.Stats(0.1)
	if s.Nodes != 4 {
		t.Fatalf("nodes = %d", s.Nodes)
	}
	if s.Edges != 4 { // the 0.05 edge is below threshold
		t.Fatalf("edges = %d", s.Edges)
	}
	if s.Reciprocity != 1 {
		t.Fatalf("reciprocity = %v", s.Reciprocity)
	}
	if math.Abs(s.Density-4.0/12.0) > 1e-12 {
		t.Fatalf("density = %v", s.Density)
	}
	// At zero threshold the weak edge appears and breaks full reciprocity.
	s0 := n.Stats(0)
	if s0.Edges != 5 || s0.Reciprocity != 4.0/5.0 {
		t.Fatalf("threshold-0 stats: %+v", s0)
	}
}

func TestNetworkStatsEmpty(t *testing.T) {
	n := &Network{}
	if s := n.Stats(0); s.Nodes != 0 || s.Edges != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestBlocksAppearAsComponents(t *testing.T) {
	// Integration: a real LOOP over chain data must yield a network with
	// signal in it.
	X, names := chainData(200, 2, 31)
	net, err := RunLOOP(X, names, loopConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	s := net.Stats(0)
	if s.MeanOutStrength <= 0 {
		t.Fatal("no signal in network")
	}
}

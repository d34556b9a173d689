package iorf

// NetworkStats summarises an iRF-LOOP network's structure — the
// post-processing a predictive-expression-network analysis applies before
// interpretation.
type NetworkStats struct {
	// Nodes is the feature count.
	Nodes int
	// Edges counts non-zero directed edges.
	Edges int
	// Density is Edges / (Nodes × (Nodes − 1)).
	Density float64
	// Reciprocity is the fraction of edges (i→j) whose reverse (j→i) is
	// also present — high for the symmetric latent-factor structure of the
	// census generator.
	Reciprocity float64
	// MeanOutStrength is the average row sum (≈1 for normalised rows with
	// any signal).
	MeanOutStrength float64
}

// Stats computes structural statistics over the network at the given edge
// weight threshold (edges below min are ignored).
func (n *Network) Stats(min float64) NetworkStats {
	s := NetworkStats{Nodes: len(n.Adjacency)}
	if s.Nodes == 0 {
		return s
	}
	var reciprocal int
	var strength float64
	for i, row := range n.Adjacency {
		for j, w := range row {
			strength += w
			if i == j || w < min || w == 0 {
				continue
			}
			s.Edges++
			if rev := n.Adjacency[j][i]; rev >= min && rev > 0 {
				reciprocal++
			}
		}
	}
	if s.Edges > 0 {
		s.Reciprocity = float64(reciprocal) / float64(s.Edges)
	}
	if s.Nodes > 1 {
		s.Density = float64(s.Edges) / float64(s.Nodes*(s.Nodes-1))
	}
	s.MeanOutStrength = strength / float64(s.Nodes)
	return s
}

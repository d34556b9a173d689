package iorf

import "testing"

func TestBlocksAppearAsComponents(t *testing.T) {
	// Integration: a real LOOP over chain data must yield a network with
	// signal in it.
	X, names := chainData(200, 2, 31)
	net, err := RunLOOP(X, names, loopConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	var strength float64
	for _, row := range net.Adjacency {
		for _, w := range row {
			strength += w
		}
	}
	if strength <= 0 {
		t.Fatal("no signal in network")
	}
}

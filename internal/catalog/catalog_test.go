package catalog

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// demoCatalog builds a small codesign catalog: runtime grows with procs,
// storage shrinks with compression.
func demoCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New("io-study")
	id := 0
	for _, comp := range []string{"none", "zfp"} {
		for _, procs := range []string{"2", "4", "8"} {
			p := float64(procs[0] - '0')
			runtime := 100 / p
			storage := 50.0
			if comp == "zfp" {
				storage = 10
				runtime += 5 // compression costs compute
			}
			err := c.Add(Entry{
				RunID:   fmt.Sprintf("run-%02d", id),
				Params:  map[string]string{"compression": comp, "procs": procs},
				Metrics: map[string]float64{"runtime": runtime, "storage_gb": storage},
			})
			if err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	return c
}

func TestAddValidation(t *testing.T) {
	c := New("x")
	if err := c.Add(Entry{Metrics: map[string]float64{"m": 1}}); err == nil {
		t.Fatal("missing run id accepted")
	}
	if err := c.Add(Entry{RunID: "r"}); err == nil {
		t.Fatal("missing metrics accepted")
	}
	if err := c.Add(Entry{RunID: "r", Metrics: map[string]float64{"m": math.NaN()}}); err == nil {
		t.Fatal("NaN metric accepted")
	}
	if err := c.Add(Entry{RunID: "r", Metrics: map[string]float64{"m": math.Inf(1)}}); err == nil {
		t.Fatal("Inf metric accepted")
	}
}

func TestBest(t *testing.T) {
	c := demoCatalog(t)
	fastest, err := c.Best(Objective{Metric: "runtime", Direction: Minimize})
	if err != nil {
		t.Fatal(err)
	}
	// Fastest: procs=8, compression=none → runtime 12.5.
	if fastest.Params["procs"] != "8" || fastest.Params["compression"] != "none" {
		t.Fatalf("fastest: %+v", fastest)
	}
	smallest, _ := c.Best(Objective{Metric: "storage_gb", Direction: Minimize})
	if smallest.Params["compression"] != "zfp" {
		t.Fatalf("smallest: %+v", smallest)
	}
	if _, err := c.Best(Objective{Metric: "ghost", Direction: Minimize}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := c.Best(Objective{Metric: "runtime", Direction: "sideways"}); err == nil {
		t.Fatal("bad direction accepted")
	}
}

func TestParameterImpact(t *testing.T) {
	c := demoCatalog(t)
	imp, err := c.ParameterImpact("compression", "storage_gb")
	if err != nil {
		t.Fatal(err)
	}
	if imp.MeanBy["none"] != 50 || imp.MeanBy["zfp"] != 10 {
		t.Fatalf("means: %v", imp.MeanBy)
	}
	if imp.Spread != 40 {
		t.Fatalf("spread: %v", imp.Spread)
	}
	// procs does not move storage at all.
	flat, _ := c.ParameterImpact("procs", "storage_gb")
	if flat.Spread != 0 {
		t.Fatalf("procs should not affect storage: %v", flat)
	}
	if _, err := c.ParameterImpact("ghost", "runtime"); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestRankParameters(t *testing.T) {
	c := demoCatalog(t)
	ranked, err := c.RankParameters([]string{"procs", "compression"}, "storage_gb")
	if err != nil {
		t.Fatal(err)
	}
	if ranked[0].Parameter != "compression" {
		t.Fatalf("ranking: %v then %v", ranked[0].Parameter, ranked[1].Parameter)
	}
}

func TestParetoFront(t *testing.T) {
	c := demoCatalog(t)
	front, err := c.ParetoFront([]Objective{
		{Metric: "runtime", Direction: Minimize},
		{Metric: "storage_gb", Direction: Minimize},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Trade-off: among none-compression entries only procs=8 survives (it
	// dominates the slower ones with equal storage); among zfp entries only
	// procs=8 survives. Both front points trade runtime vs storage.
	if len(front) != 2 {
		t.Fatalf("front size = %d: %+v", len(front), front)
	}
	for _, e := range front {
		if e.Params["procs"] != "8" {
			t.Fatalf("dominated entry on front: %+v", e)
		}
	}
	if _, err := c.ParetoFront(nil); err == nil {
		t.Fatal("empty objectives accepted")
	}
}

func TestParetoFrontNeverEmpty(t *testing.T) {
	// Property: for any finite catalog with the metric present, the front
	// has ≥1 entry and no front member dominates another.
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		c := New("p")
		for i, v := range vals {
			c.Add(Entry{
				RunID:   fmt.Sprintf("r%03d", i),
				Metrics: map[string]float64{"a": float64(v % 16), "b": float64(v / 16)},
			})
		}
		objs := []Objective{
			{Metric: "a", Direction: Minimize},
			{Metric: "b", Direction: Maximize},
		}
		front, err := c.ParetoFront(objs)
		if err != nil || len(front) == 0 {
			return false
		}
		for i, a := range front {
			for j, b := range front {
				if i == j {
					continue
				}
				// a must not dominate b.
				if a.Metrics["a"] <= b.Metrics["a"] && a.Metrics["b"] >= b.Metrics["b"] &&
					(a.Metrics["a"] < b.Metrics["a"] || a.Metrics["b"] > b.Metrics["b"]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	c := demoCatalog(t)
	sum := c.Summary()
	if !strings.Contains(sum, "runtime") || !strings.Contains(sum, "storage_gb") {
		t.Fatalf("summary: %s", sum)
	}
	if names := c.MetricNames(); len(names) != 2 || names[0] != "runtime" {
		t.Fatalf("metric names: %v", names)
	}
}

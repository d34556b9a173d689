package savanna

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"fairflow/internal/catalog"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
)

func TestCatalogExecutorCollectsMetrics(t *testing.T) {
	campaign := testCampaign(6)
	m, _ := cheetah.BuildManifest(campaign)
	cat := catalog.New(campaign.Name)
	exe := &CatalogExecutor{
		App: func(params map[string]string) (map[string]float64, error) {
			i, _ := strconv.Atoi(params["i"])
			if i == 4 {
				return nil, fmt.Errorf("planted failure")
			}
			return map[string]float64{"runtime": float64(100 - i)}, nil
		},
		Catalog: cat,
	}
	eng := &LocalEngine{Executor: exe, Workers: 3}
	results, _, err := eng.RunCampaign(context.Background(), campaign.Name, m.Runs)
	if err != nil {
		t.Fatal(err)
	}
	var failed int
	for _, r := range results {
		if r.Status == provenance.StatusFailed {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("failed = %d", failed)
	}
	if cat.Len() != 5 {
		t.Fatalf("catalog entries = %d (failed run must not pollute it)", cat.Len())
	}
	best, err := cat.Best(catalog.Objective{Metric: "runtime", Direction: catalog.Minimize})
	if err != nil {
		t.Fatal(err)
	}
	if best.Params["i"] != "5" {
		t.Fatalf("best: %+v", best)
	}
}

func TestCatalogExecutorValidation(t *testing.T) {
	exe := &CatalogExecutor{}
	if err := exe.Execute(cheetah.Run{ID: "r"}); err == nil {
		t.Fatal("unconfigured executor accepted")
	}
}

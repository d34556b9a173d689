// iRF-LOOP census example (paper Section V-D): compose the all-features
// campaign with Cheetah, execute it with Savanna's dynamic local pilot
// running real iRF fits, survive planted failures via resubmission, and
// assemble the predictive network.
//
//	go run ./examples/irf-loop-census
package main

import (
	"context"
	"fmt"
	"log"
	"strconv"
	"sync"

	"fairflow/internal/census"
	"fairflow/internal/cheetah"
	"fairflow/internal/iorf"
	"fairflow/internal/provenance"
	"fairflow/internal/savanna"
)

func main() {
	// 1. The dataset: a synthetic stand-in for the 2019 ACS table.
	const features, samples = 20, 300
	data, err := census.Generate(census.Config{
		Features: features, Samples: samples, LatentFactors: 3, Noise: 0.3, Seed: 2019,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("census table: %d features × %d samples\n", data.Features(), data.Samples())

	// 2. Compose the campaign: one parameter sweep over all features.
	values := make([]string, features)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	campaign := cheetah.Campaign{
		Name: "irf-loop-demo", App: "irf-fit", Account: "SYB105",
		Groups: []cheetah.SweepGroup{{
			Name: "features", Nodes: 4, WalltimeMinutes: 60,
			Sweeps: []cheetah.Sweep{{
				Name:       "all",
				Parameters: []cheetah.Parameter{{Name: "feature", Layer: cheetah.Application, Values: values}},
			}},
		}},
	}
	m, err := cheetah.BuildManifest(campaign)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cheetah campaign: %d runs enumerated\n", len(m.Runs))

	// 3. The app: one real iRF fit per run, writing its importance row into
	//    the shared network. A couple of features fail on first attempt to
	//    demonstrate resubmission.
	var mu sync.Mutex
	adjacency := make([][]float64, features)
	attempts := map[string]int{}
	reg := savanna.NewFuncRegistry("irf-fit")
	reg.Register("irf-fit", func(params map[string]string) error {
		target, err := strconv.Atoi(params["feature"])
		if err != nil {
			return err
		}
		mu.Lock()
		attempts[params["feature"]]++
		n := attempts[params["feature"]]
		mu.Unlock()
		if n == 1 && target%9 == 0 {
			return fmt.Errorf("transient failure on feature %d", target)
		}
		row, err := iorf.LoopFitFeature(data.X, target, iorf.IRFConfig{
			Forest: iorf.ForestConfig{
				Trees: 20,
				Tree:  iorf.TreeConfig{MaxDepth: 6, MinLeaf: 3},
				Seed:  int64(1000 + target),
			},
			Iterations: 2, WeightFloor: 0.05,
		})
		if err != nil {
			return err
		}
		mu.Lock()
		adjacency[target] = row
		mu.Unlock()
		return nil
	})

	// 4. Execute with the dynamic pilot; resubmit until done.
	prov := provenance.NewStore()
	eng := &savanna.LocalEngine{Executor: reg, Workers: 4, Prov: prov}
	todo := m.Runs
	for pass := 1; len(todo) > 0; pass++ {
		results, _, err := eng.RunCampaign(context.Background(), campaign.Name, todo)
		if err != nil {
			log.Fatal(err)
		}
		var failed []cheetah.Run
		for _, r := range results {
			if r.Status != provenance.StatusSucceeded {
				failed = append(failed, r.Run)
			}
		}
		fmt.Printf("pass %d: %d/%d runs succeeded\n", pass, len(todo)-len(failed), len(todo))
		todo = failed
	}

	// 5. Assemble and inspect the network.
	net := &iorf.Network{FeatureNames: data.FeatureNames, Adjacency: adjacency}
	fmt.Println("strongest predictive edges:")
	for _, e := range net.TopEdges(6) {
		fmt.Printf("  %-18s → %-18s %.3f\n", e.From, e.To, e.Weight)
	}
	sum := prov.Summarize(campaign.Name)
	fmt.Printf("provenance: %d records (%d succeeded, %d failed) — full campaign context retained\n",
		sum.Total, sum.ByStatus[provenance.StatusSucceeded], sum.ByStatus[provenance.StatusFailed])
}

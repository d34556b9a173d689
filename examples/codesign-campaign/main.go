// Codesign campaign example (paper Section II-C): compose a parameter
// sweep spanning application, middleware and system layers with Cheetah,
// execute it with Savanna collecting output metrics, and query the
// resulting catalog — best configuration per objective, per-parameter
// impact ranking, and the runtime/storage Pareto front.
//
//	go run ./examples/codesign-campaign
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"strconv"

	"fairflow/internal/catalog"
	"fairflow/internal/cheetah"
	"fairflow/internal/savanna"
)

func main() {
	// 1. Compose: parameters across the stack.
	procs, err := cheetah.IntRange("procs", cheetah.System, 2, 16, 7) // 2, 9, 16
	if err != nil {
		log.Fatal(err)
	}
	campaign := cheetah.Campaign{
		Name: "io-codesign", App: "mini-sim", Account: "CSC000",
		Groups: []cheetah.SweepGroup{{
			Name: "sweep", Nodes: 4, WalltimeMinutes: 120,
			Sweeps: []cheetah.Sweep{{
				Name: "grid",
				Parameters: []cheetah.Parameter{
					{Name: "resolution", Layer: cheetah.Application, Values: []string{"256", "512"}},
					{Name: "compression", Layer: cheetah.Middleware, Values: []string{"none", "lossless", "zfp"}},
					procs,
				},
			}},
		}},
	}
	m, err := cheetah.BuildManifest(campaign)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign %q: %d runs over %v\n", campaign.Name, len(m.Runs), campaign.ParamNames())

	// 2. Execute, collecting metrics. The mini-sim is an analytic model of
	//    an I/O-bound simulation: runtime shrinks with procs (Amdahl-ish),
	//    storage shrinks with compression, compression costs compute.
	cat := catalog.New(campaign.Name)
	exe := &savanna.CatalogExecutor{
		App: func(params map[string]string) (map[string]float64, error) {
			res, _ := strconv.ParseFloat(params["resolution"], 64)
			p, _ := strconv.ParseFloat(params["procs"], 64)
			cells := res * res
			compute := cells / 1e4 * (0.2 + 0.8/p)
			storage := cells * 8 / 1e6 // MB raw
			switch params["compression"] {
			case "lossless":
				storage *= 0.55
				compute *= 1.10
			case "zfp":
				storage *= 0.12
				compute *= 1.18
			}
			ioTime := storage / 50 // 50 MB/s effective
			return map[string]float64{
				"runtime_s":  math.Round((compute+ioTime)*100) / 100,
				"storage_mb": math.Round(storage*100) / 100,
			}, nil
		},
		Catalog: cat,
	}
	eng := &savanna.LocalEngine{Executor: exe, Workers: 4}
	if _, _, err := eng.RunCampaign(context.Background(), campaign.Name, m.Runs); err != nil {
		log.Fatal(err)
	}
	fmt.Print(cat.Summary())

	// 3. Query: declared objectives.
	fastest, _ := cat.Best(catalog.Objective{Metric: "runtime_s", Direction: catalog.Minimize})
	fmt.Printf("\nfastest config: %s → %.2f s\n", paramString(fastest.Params), fastest.Metrics["runtime_s"])
	smallest, _ := cat.Best(catalog.Objective{Metric: "storage_mb", Direction: catalog.Minimize})
	fmt.Printf("smallest output: %s → %.2f MB\n", paramString(smallest.Params), smallest.Metrics["storage_mb"])

	// 4. Which knob matters most for runtime?
	ranked, err := cat.RankParameters(campaign.ParamNames(), "runtime_s")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nparameter impact on runtime (spread of per-value means):")
	for _, imp := range ranked {
		fmt.Printf("  %-12s %.2f s\n", imp.Parameter, imp.Spread)
	}

	// 5. The runtime/storage trade-off frontier.
	front, err := cat.ParetoFront([]catalog.Objective{
		{Metric: "runtime_s", Direction: catalog.Minimize},
		{Metric: "storage_mb", Direction: catalog.Minimize},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npareto front (%d of %d configurations):\n", len(front), cat.Len())
	for _, e := range front {
		fmt.Printf("  %-50s runtime %.2f s, storage %.2f MB\n",
			paramString(e.Params), e.Metrics["runtime_s"], e.Metrics["storage_mb"])
	}
}

// paramString renders a sweep point compactly with sorted keys.
func paramString(params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += k + "=" + params[k]
	}
	return out
}

// Command cheetah composes and inspects campaigns (paper Section IV).
//
//	cheetah create -spec campaign.json -root campaigns/
//	    validate a campaign spec, build its manifest, and materialise the
//	    campaign directory schema
//	cheetah status -campaign campaigns/<name>
//	    summarise run statuses and list the resubmission set
//	cheetah runs -spec campaign.json
//	    enumerate the campaign's runs without materialising anything
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"fairflow/internal/cheetah"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "create":
		fs := flag.NewFlagSet("create", flag.ExitOnError)
		spec := fs.String("spec", "", "campaign spec JSON")
		root := fs.String("root", "campaigns", "root directory for campaign endpoints")
		fs.Parse(os.Args[2:])
		create(*spec, *root)
	case "status":
		fs := flag.NewFlagSet("status", flag.ExitOnError)
		dir := fs.String("campaign", "", "materialised campaign directory")
		fs.Parse(os.Args[2:])
		status(*dir)
	case "runs":
		fs := flag.NewFlagSet("runs", flag.ExitOnError)
		spec := fs.String("spec", "", "campaign spec JSON")
		fs.Parse(os.Args[2:])
		listRuns(*spec)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cheetah <create|status|runs> [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cheetah:", err)
	os.Exit(1)
}

func loadCampaign(spec string) cheetah.Campaign {
	if spec == "" {
		fatal(fmt.Errorf("need -spec"))
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		fatal(err)
	}
	var c cheetah.Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		fatal(err)
	}
	return c
}

func create(spec, root string) {
	c := loadCampaign(spec)
	m, err := cheetah.BuildManifest(c)
	if err != nil {
		fatal(err)
	}
	dir, err := m.Materialize(root)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cheetah: campaign %q materialised at %s (%d runs across %d groups)\n",
		c.Name, dir, len(m.Runs), len(c.Groups))
}

func status(dir string) {
	if dir == "" {
		fatal(fmt.Errorf("need -campaign"))
	}
	sum, err := cheetah.Status(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cheetah: %d runs\n", sum.Total)
	for _, st := range []cheetah.RunStatus{cheetah.RunPending, cheetah.RunRunning, cheetah.RunSucceeded, cheetah.RunFailed} {
		if n := sum.ByStatus[st]; n > 0 {
			fmt.Printf("  %-10s %d\n", st, n)
		}
	}
	if len(sum.PendingRuns) > 0 && len(sum.PendingRuns) <= 20 {
		fmt.Println("  resubmission set:")
		for _, id := range sum.PendingRuns {
			fmt.Printf("    %s\n", id)
		}
	} else if len(sum.PendingRuns) > 20 {
		fmt.Printf("  resubmission set: %d runs (first %s)\n", len(sum.PendingRuns), sum.PendingRuns[0])
	}
}

func listRuns(spec string) {
	c := loadCampaign(spec)
	runs, err := c.EnumerateRuns()
	if err != nil {
		fatal(err)
	}
	for _, r := range runs {
		fmt.Printf("%s  %v\n", r.ID, r.Params)
	}
}

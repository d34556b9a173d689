// Command savanna executes materialised campaigns (paper Section IV): it is
// the pilot runner that translates a campaign manifest into actual work,
// tracks statuses in the campaign directory, and supports resubmission of
// partially completed campaigns.
//
//	savanna run -campaign campaigns/<name> -app sleep -workers 8 [-sets N]
//
// With -remote the runner becomes a distributed-campaign coordinator
// instead of executing in-process: it listens on the given address, and
// "fairctl worker -connect" processes execute the runs under heartbeat-
// renewed leases (see DESIGN.md §4g):
//
//	savanna run -campaign campaigns/<name> -remote :7171 \
//	    [-batch 32] [-lease-ttl 10s] [-worker-wait 60s] \
//	    [-events events.jsonl] [-health health.json] [-monitor-addr :8080] \
//	    [-telemetry telemetry.json]
//
// -telemetry writes the merged fleet telemetry after the campaign: the
// coordinator's spans plus every worker span shipped back over the control
// connection, one trace — render it with "fairctl trace -f telemetry.json".
//
// Built-in demo apps:
//
//	sleep        sleeps params["ms"] milliseconds (default 10)
//	irf-fit      fits one iRF model on a synthetic census table; the run's
//	             params["feature"] selects the response column
//	fail-some    fails when params["i"] is divisible by 7 (resubmission demo)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"fairflow/internal/census"
	"fairflow/internal/cheetah"
	"fairflow/internal/iorf"
	"fairflow/internal/monitor"
	"fairflow/internal/provenance"
	"fairflow/internal/remote"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
	"fairflow/internal/telemetry/history"
)

func main() {
	if len(os.Args) < 2 || os.Args[1] != "run" {
		fmt.Fprintln(os.Stderr, "usage: savanna run -campaign <dir> [-app sleep] [-workers 8] [-sets 0] [-prov out.jsonl]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	dir := fs.String("campaign", "", "materialised campaign directory")
	app := fs.String("app", "", "app implementation (default: the campaign's app name)")
	workers := fs.Int("workers", 8, "worker pool size (the local pilot's nodes)")
	sets := fs.Int("sets", 0, "if >0, use the set-synchronized baseline with this set size")
	provOut := fs.String("prov", "", "write provenance JSONL here")
	remoteAddr := fs.String("remote", "", "coordinate a distributed campaign: listen here for fairctl workers")
	batch := fs.Int("batch", 32, "remote: runs per assignment message")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "remote: declare a silent worker dead after this long")
	workerWait := fs.Duration("worker-wait", 60*time.Second, "remote: abort after this long with work left and no live worker")
	eventsOut := fs.String("events", "", "remote: write the event journal JSONL here")
	healthOut := fs.String("health", "", "remote: write the final campaign health JSON here")
	telemetryOut := fs.String("telemetry", "", "remote: write the merged telemetry dump (metrics, fleet trace spans, events) JSON here — feed it to fairctl trace/metrics/health")
	monitorAddr := fs.String("monitor-addr", "", "remote: serve live /health.json on this address")
	fs.Parse(os.Args[2:])

	if *dir == "" {
		fatal(fmt.Errorf("need -campaign"))
	}
	m, err := cheetah.LoadCampaignDir(*dir)
	if err != nil {
		fatal(err)
	}
	// Only campaign.json is fsynced at create: re-create the run directories
	// and params.json files a power loss took back.
	restored, err := m.RestoreRunFiles(*dir)
	if err != nil {
		fatal(fmt.Errorf("restoring run files from campaign.json: %w", err))
	}
	if restored > 0 {
		fmt.Fprintf(os.Stderr, "savanna: %s: %d run file(s) re-created from campaign.json\n", *dir, restored)
	}
	appName := *app
	if appName == "" {
		appName = m.Campaign.App
	}
	reg := savanna.NewFuncRegistry(m.Campaign.App)
	if *remoteAddr == "" {
		// Workers execute remotely; only the local engine needs an app.
		registerDemoApps(reg, m.Campaign.App, appName)
	}

	prov := provenance.NewStore()

	// Resume: only run what has not succeeded yet (per directory statuses).
	sum, err := cheetah.Status(*dir)
	if err != nil {
		fatal(err)
	}
	pendingSet := map[string]bool{}
	for _, id := range sum.PendingRuns {
		pendingSet[id] = true
	}
	var todo []cheetah.Run
	for _, r := range m.Runs {
		if pendingSet[r.ID] {
			todo = append(todo, r)
		}
	}
	fmt.Printf("savanna: %d of %d runs pending\n", len(todo), len(m.Runs))

	start := time.Now()
	var results []savanna.RunResult
	if *remoteAddr != "" {
		results, err = runRemote(remoteOpts{
			addr: *remoteAddr, dir: *dir, batch: *batch,
			leaseTTL: *leaseTTL, workerWait: *workerWait,
			eventsOut: *eventsOut, healthOut: *healthOut, telemetryOut: *telemetryOut,
			monitorAddr: *monitorAddr, restored: restored,
		}, prov, m.Campaign.Name, todo)
	} else {
		eng := &savanna.LocalEngine{
			Executor:    reg,
			Workers:     *workers,
			Prov:        prov,
			CampaignDir: *dir,
		}
		if *sets > 0 {
			results, err = eng.RunSets(m.Campaign.Name, todo, *sets)
		} else {
			results, _, err = eng.RunCampaign(context.Background(), m.Campaign.Name, todo)
		}
	}
	if err != nil {
		fatal(err)
	}
	var ok, failed int
	for _, r := range results {
		if r.Status == provenance.StatusSucceeded {
			ok++
		} else {
			failed++
		}
	}
	fmt.Printf("savanna: %d succeeded, %d failed in %.2fs\n", ok, failed, time.Since(start).Seconds())
	if failed > 0 {
		fmt.Println("savanna: re-run the same command to resubmit the failed set")
	}
	if *provOut != "" {
		f, err := os.Create(*provOut)
		if err != nil {
			fatal(err)
		}
		if err := prov.WriteJSONL(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("savanna: provenance written to %s\n", *provOut)
	}
}

type remoteOpts struct {
	addr, dir            string
	batch                int
	leaseTTL, workerWait time.Duration
	eventsOut, healthOut string
	telemetryOut         string
	monitorAddr          string
	restored             int // run files RestoreRunFiles re-created
}

// runRemote coordinates the campaign across fairctl workers: the full
// telemetry plane (events, metrics, campaign monitor with the dead-worker
// alert) is wired up, optionally served live as /health.json, and dumped
// to files when the campaign ends.
func runRemote(o remoteOpts, prov *provenance.Store, campaign string, todo []cheetah.Run) ([]savanna.RunResult, error) {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, err
	}
	log := eventlog.NewLog()
	if o.restored > 0 {
		log.Append(eventlog.Warn, eventlog.CampaignRestored, "run files re-created from campaign.json", 0,
			telemetry.Int("run_files", o.restored))
	}
	metrics := telemetry.NewRegistry()
	tracer := telemetry.NewTracer()
	// The history ring backs rate() rules with true sliding windows and
	// serves /series.json for after-the-fact throughput plots.
	ring := history.New(metrics, 0)
	stopSampling := ring.Start(2 * time.Second)
	defer stopSampling()
	mon := monitor.New(monitor.Config{
		Campaign:  campaign,
		TotalRuns: len(todo),
		Rules:     []monitor.Rule{monitor.DeadWorkerRule()},
		History:   ring,
	}, metrics, log)
	if o.monitorAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/health.json", mon.Handler())
		mux.Handle("/series.json", ring.Handler())
		go http.ListenAndServe(o.monitorAddr, mux)
	}
	fmt.Printf("savanna: coordinating on %s — join with: fairctl worker -connect %s -- <cmd> {param}...\n",
		ln.Addr(), ln.Addr())

	eng := &remote.Engine{
		Listener:    ln,
		BatchSize:   o.batch,
		LeaseTTL:    o.leaseTTL,
		WorkerWait:  o.workerWait,
		Prov:        prov,
		CampaignDir: o.dir,
		Tracer:      tracer,
		Metrics:     metrics,
		Events:      log,
	}
	results, report, err := eng.RunCampaign(context.Background(), campaign, todo)
	if err == nil {
		fmt.Println("savanna:", report.String())
	}
	if o.eventsOut != "" {
		if werr := writeEventsJSONL(o.eventsOut, log); werr != nil {
			fmt.Fprintln(os.Stderr, "savanna: writing events:", werr)
		}
	}
	if o.healthOut != "" {
		if werr := writeHealthJSON(o.healthOut, mon); werr != nil {
			fmt.Fprintln(os.Stderr, "savanna: writing health:", werr)
		}
	}
	if o.telemetryOut != "" {
		// The merged dump: coordinator spans plus every worker span the
		// fleet shipped back, one trace — fairctl trace renders it as a
		// single flamegraph.
		if werr := writeTelemetryJSON(o.telemetryOut, metrics, tracer, log); werr != nil {
			fmt.Fprintln(os.Stderr, "savanna: writing telemetry:", werr)
		}
	}
	return results, err
}

func writeTelemetryJSON(path string, metrics *telemetry.Registry, tracer *telemetry.Tracer, log *eventlog.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return eventlog.Collect(metrics, tracer, log).WriteJSON(f)
}

func writeEventsJSONL(path string, log *eventlog.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, ev := range log.Snapshot() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

func writeHealthJSON(path string, mon *monitor.Monitor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(mon.Health())
}

// registerDemoApps installs the built-in app implementations under the
// campaign's app name so any campaign can be driven by a demo workload.
func registerDemoApps(reg *savanna.FuncRegistry, campaignApp, impl string) {
	var fn func(map[string]string) error
	switch impl {
	case "sleep", "":
		fn = func(params map[string]string) error {
			ms := 10
			if v, err := strconv.Atoi(params["ms"]); err == nil {
				ms = v
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
			return nil
		}
	case "fail-some":
		fn = func(params map[string]string) error {
			if i, err := strconv.Atoi(params["i"]); err == nil && i%7 == 0 {
				return fmt.Errorf("planted failure at i=%d", i)
			}
			return nil
		}
	case "irf-fit":
		data, err := census.Generate(census.Config{
			Features: 24, Samples: 300, LatentFactors: 3, Noise: 0.3, Seed: 2019,
		})
		if err != nil {
			fatal(err)
		}
		fn = func(params map[string]string) error {
			target, err := strconv.Atoi(params["feature"])
			if err != nil {
				return fmt.Errorf("irf-fit needs a numeric 'feature' parameter")
			}
			_, err = iorf.LoopFitFeature(data.X, target%data.Features(), iorf.IRFConfig{
				Forest: iorf.ForestConfig{
					Trees: 16,
					Tree:  iorf.TreeConfig{MaxDepth: 6, MinLeaf: 3},
					Seed:  int64(target),
				},
				Iterations:  2,
				WeightFloor: 0.05,
			})
			return err
		}
	default:
		fatal(fmt.Errorf("unknown app %q (have: sleep, fail-some, irf-fit)", impl))
	}
	reg.Register(campaignApp, fn)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "savanna:", err)
	os.Exit(1)
}

package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/monitor"
	"fairflow/internal/remote"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// coordinateCmd implements "fairctl coordinate": run one failover-capable
// coordinator incarnation over a materialised campaign directory. Unlike
// "savanna run -remote", every state transition is journaled with batched
// fsync, the incarnation fences a fresh epoch before dispatching, and the
// same command serves all three roles in the handover protocol:
//
//	fairctl coordinate -campaign c/                 first coordinator
//	fairctl coordinate -campaign c/ -resume         restart after a crash
//	fairctl coordinate -campaign c/ -standby        warm standby: tail the
//	                                                lease file, take over
//	                                                when the active claim
//	                                                goes stale
//
// Workers join with "fairctl worker -serve"; they survive the handover by
// spooling outcomes locally and replaying them to the successor.
func coordinateCmd(args []string) {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	dir := fs.String("campaign", "", "materialised campaign directory")
	listen := fs.String("listen", "127.0.0.1:0", "address to coordinate on")
	journalPath := fs.String("journal", "", "attempt journal (default <campaign>/attempts.jsonl)")
	holder := fs.String("holder", "", "incarnation name in the journal and lease file (default host.pid)")
	resume := fs.Bool("resume", false, "take over a journal that already has records")
	standby := fs.Bool("standby", false, "wait for the active coordinator's lease to go stale, then take over")
	leaseFile := fs.String("lease-file", "", "coordinator claim file (default <journal>.lease)")
	coordTTL := fs.Duration("coord-ttl", 3*time.Second, "coordinator lease TTL (standbys take over after this lapses)")
	autoSync := fs.Int("fsync-every", 32, "fsync the journal every N appends (0 = every append survives only the OS cache)")
	batch := fs.Int("batch", 8, "runs per assignment batch")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "worker lease TTL (heartbeats renew it)")
	workerWait := fs.Duration("worker-wait", 60*time.Second, "wait this long for the first worker")
	eventsOut := fs.String("events", "", "write the merged event journal JSONL here at exit")
	reportOut := fs.String("report", "", "write the completeness report JSON here")
	monitorAddr := fs.String("monitor", "", "serve the campaign monitor's /health.json on this address")
	fs.Parse(args)

	if *dir == "" {
		fatal(fmt.Errorf("coordinate needs -campaign"))
	}
	if *journalPath == "" {
		*journalPath = filepath.Join(*dir, "attempts.jsonl")
	}
	if *holder == "" {
		host, _ := os.Hostname()
		*holder = fmt.Sprintf("%s.%d", host, os.Getpid())
	}

	m, err := cheetah.LoadCampaignDir(*dir)
	if err != nil {
		fatal(err)
	}
	restored := restoreRunFiles(m, *dir)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}

	log := eventlog.NewLog()
	if restored > 0 {
		log.Append(eventlog.Warn, eventlog.CampaignRestored, "run files re-created from campaign.json", 0,
			telemetry.Int("run_files", restored))
	}
	metrics := telemetry.NewRegistry()
	mon := monitor.New(monitor.Config{
		Campaign:  m.Campaign.Name,
		TotalRuns: len(m.Runs),
		Rules: []monitor.Rule{
			monitor.DeadWorkerRule(),
			monitor.CoordinatorFlapRule(0.05),
		},
	}, metrics, log)
	if *monitorAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/health.json", mon.Handler())
		go http.ListenAndServe(*monitorAddr, mux)
	}

	eng := &remote.Engine{
		Listener:    ln,
		BatchSize:   *batch,
		LeaseTTL:    *leaseTTL,
		WorkerWait:  *workerWait,
		CampaignDir: *dir,
		Tracer:      telemetry.NewTracer(),
		Metrics:     metrics,
		Events:      log,
	}
	role := "coordinating"
	if *standby {
		role = "standing by"
	}
	fmt.Printf("fairctl: %s on %s as %q — join with: fairctl worker -connect %s -serve -- <cmd> {param}...\n",
		role, ln.Addr(), *holder, ln.Addr())

	_, report, info, err := remote.Coordinate(context.Background(), remote.CoordinateConfig{
		Engine:    eng,
		Campaign:  m.Campaign.Name,
		Runs:      m.Runs,
		Journal:   *journalPath,
		Holder:    *holder,
		Resume:    *resume,
		Standby:   *standby,
		LeaseFile: *leaseFile,
		LeaseTTL:  *coordTTL,
		AutoSync:  *autoSync,
	})
	if *eventsOut != "" {
		if werr := writeEventsOut(*eventsOut, log); werr != nil {
			fmt.Fprintln(os.Stderr, "fairctl: writing events:", werr)
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("fairctl:", info)
	fmt.Println("fairctl:", report.String())
	if *reportOut != "" {
		if err := report.WriteFile(*reportOut); err != nil {
			fatal(err)
		}
	}
	if !report.Complete() {
		fmt.Println("fairctl: incomplete — restart with -resume (or keep a -standby running) to finish")
		os.Exit(3)
	}
}

func writeEventsOut(path string, log *eventlog.Log) error {
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

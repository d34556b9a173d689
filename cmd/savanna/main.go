// Command savanna executes materialised campaigns (paper Section IV): it
// translates a campaign manifest into work, records every attempt in the
// campaign directory's journal (DIR/attempts.jsonl), and resumes a partly
// finished campaign when the same command is run again.
//
//	savanna run -campaign DIR [flags] -- cmd {param}...    execute locally
//	savanna run -campaign DIR -listen ADDR [-standby]      coordinate workers
//	savanna run -campaign DIR                              probe
//
// Every incarnation that executes takes the campaign the same way (DESIGN.md
// §4j): it claims DIR/attempts.jsonl.lease, replays the journal, fences it at
// a fresh epoch, and dispatches only the runs the journal holds no success
// for, so a re-run is a resume. A live claim by another incarnation is
// refused; a claim whose holder died lapses 3 s after its last renewal, and
// a re-run right after a kill -9 is refused until then. Locally each run
// executes the command template after "--" as a process in DIR/<run id>, its
// {param} placeholders substituted, with retries, deadlines and quarantine
// armed; a local run whose claim is taken over kills its processes and exits
// 3. With -listen the command is one coordinator incarnation: "fairctl
// worker -connect ADDR -- cmd {param}..." processes execute the runs under
// heartbeat-renewed leases, and -standby waits for the active claim to go
// stale before taking over. With neither, the command prints the resume
// position and executes nothing: it claims nothing and writes no journal.
//
// Exit status: 0 when every owed run completed, 3 when runs remain, 1 on an
// error, 2 on a usage error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/cheetah"
	"fairflow/internal/monitor"
	"fairflow/internal/provenance"
	"fairflow/internal/remote"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
	"fairflow/internal/telemetry/history"
)

// coordinatorLeaseTTL is how long an incarnation's claim on the campaign,
// local or -listen, outlives its last renewal: a standby, or the same command
// re-run after a crash, takes over once it lapses.
const coordinatorLeaseTTL = 3 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: args start at the "run" verb, and the result is
// the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || args[0] != "run" {
		fmt.Fprintln(stderr, "usage: savanna run -campaign DIR [-listen ADDR [-standby]] [flags] [-- cmd {param}...]")
		return 2
	}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("campaign", "", "materialised campaign directory")
	listen := fs.String("listen", "", "coordinate fairctl workers on this address instead of executing locally")
	standby := fs.Bool("standby", false, "with -listen: wait for the active coordinator's claim to go stale, then take over")
	workers := fs.Int("workers", 8, "local: worker pool size (the local pilot's nodes)")
	sets := fs.Int("sets", 0, "local: if >0, use the set-synchronized baseline with this set size")
	batch := fs.Int("batch", 8, "-listen: most runs a worker holds at once (topped up one per result)")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "-listen: declare a silent worker dead after this long")
	workerWait := fs.Duration("worker-wait", 60*time.Second, "-listen: abort after this long with work left and no live worker")
	maxAttempts := fs.Int("max-attempts", 3, "executions per run, first try included")
	baseDelay := fs.Duration("base-delay", time.Second, "first backoff delay (0 retries immediately)")
	runDeadline := fs.Duration("run-deadline", 0, "per-attempt deadline (0 = none)")
	quarantineAfter := fs.Int("quarantine-after", 0, "side-line a sweep point after N consecutive failures (0 = off)")
	maxFailureFraction := fs.Float64("max-failure-fraction", 0, "abort when the failed fraction exceeds this (0 = off)")
	eventsOut := fs.String("events", "", "write the event journal JSONL here at exit")
	reportOut := fs.String("report", "", "write the completeness report JSON here")
	telemetryOut := fs.String("telemetry", "", "write the merged telemetry dump (metrics, fleet trace spans, events) JSON here — feed it to fairctl trace/metrics/health")
	healthOut := fs.String("health", "", "write the final campaign health JSON here")
	monitorAddr := fs.String("monitor-addr", "", "serve live /health.json and /series.json on this address")
	provOut := fs.String("prov", "", "write provenance JSONL here")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	command := fs.Args()
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "savanna:", msg)
		return 2
	}
	switch {
	case *dir == "":
		return usage("need -campaign")
	case *standby && *listen == "":
		return usage("-standby needs -listen")
	case *sets > 0 && *listen != "":
		return usage("-sets is local only; it cannot be combined with -listen")
	case len(command) > 0 && *listen != "":
		return usage("with -listen the command template belongs on the workers: fairctl worker -connect ADDR -- cmd {param}...")
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "savanna:", err)
		return 1
	}

	m, err := cheetah.LoadCampaignDir(*dir)
	if err != nil {
		return fail(err)
	}
	journalPath := filepath.Join(*dir, "attempts.jsonl")

	// The bare probe is read-only: it replays the journal without claiming
	// the campaign or opening the journal.
	if *listen == "" && len(command) == 0 {
		recs, err := resilience.ReadJournalFile(journalPath)
		if err != nil {
			return fail(err)
		}
		probe := &savanna.Claim{State: resilience.Replay(recs), Records: len(recs)}
		if len(position(stdout, journalPath, probe, m.Runs)) > 0 {
			fmt.Fprintln(stdout, "savanna: rerun with a command template after -- (or -listen ADDR) to execute the remainder")
			return 3
		}
		return 0
	}

	// One telemetry plane for both modes. The history ring backs rate()
	// rules with true sliding windows and serves /series.json.
	tracer, metrics, events := telemetry.NewTracer(), telemetry.NewRegistry(), eventlog.NewLog()
	ring := history.New(metrics, 0)
	defer ring.Start(2 * time.Second)()
	mon := monitor.New(monitor.Config{
		Campaign: m.Campaign.Name,
		Rules:    []monitor.Rule{monitor.DeadWorkerRule(), monitor.CoordinatorFlapRule(0.05)},
		History:  ring,
	}, metrics, events)
	if *monitorAddr != "" {
		ln, err := net.Listen("tcp", *monitorAddr)
		if err != nil {
			return fail(fmt.Errorf("monitor: %w", err))
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/health.json", mon.Handler())
		mux.Handle("/series.json", ring.Handler())
		go http.Serve(ln, mux)
	}

	policy := &resilience.Config{
		Retry:           resilience.RetryPolicy{MaxAttempts: *maxAttempts, BaseDelay: *baseDelay},
		QuarantineAfter: *quarantineAfter,
		RunDeadline:     *runDeadline,
		Stop:            resilience.StopPolicy{MaxFailureFraction: *maxFailureFraction},
	}
	var prov *provenance.Store
	if *provOut != "" {
		prov = provenance.NewStore()
	}

	host, _ := os.Hostname()
	holder := fmt.Sprintf("%s.%d", host, os.Getpid())
	var report resilience.CompletenessReport
	if *listen != "" {
		report, err = coordinate(stdout, *listen, *standby, holder, m, journalPath, &remote.Engine{
			BatchSize: *batch, LeaseTTL: *leaseTTL, WorkerWait: *workerWait,
			Prov: prov, CampaignDir: *dir, Resilience: policy,
			Tracer: tracer, Metrics: metrics, Events: events,
		})
	} else {
		report, err = runLocal(stdout, stderr, m, *sets, holder, journalPath, policy, &savanna.LocalEngine{
			Executor:    &savanna.ProcessExecutor{Command: command, WorkRoot: *dir},
			Workers:     *workers,
			Prov:        prov,
			CampaignDir: *dir,
			Tracer:      tracer, Metrics: metrics, Events: events,
		})
	}

	code := 0
	if err != nil {
		code = fail(err)
	} else {
		fmt.Fprintln(stdout, "savanna:", report)
		if *reportOut != "" {
			if err := report.WriteFile(*reportOut); err != nil {
				code = fail(err)
			}
		}
	}
	outputs := []struct {
		path   string
		render func(io.Writer) error
	}{
		{*eventsOut, func(w io.Writer) error { return eventlog.WriteJSONL(w, events.Snapshot()) }},
		{*healthOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(mon.Health())
		}},
		// The merged dump: coordinator spans plus every worker span the
		// fleet shipped back, one trace.
		{*telemetryOut, func(w io.Writer) error { return eventlog.Collect(metrics, tracer, events).WriteJSON(w) }},
		{*provOut, func(w io.Writer) error { return prov.WriteJSONL(w) }},
	}
	for _, o := range outputs {
		if o.path == "" {
			continue
		}
		if err := writeOutput(o.path, o.render); err != nil {
			code = fail(fmt.Errorf("writing %s: %w", o.path, err))
		}
	}
	if code == 0 && !report.Complete() {
		fmt.Fprintln(stdout, "savanna: incomplete — re-run the same command to resume")
		code = 3
	}
	return code
}

// position prints what the journal holds and how many runs it still owes,
// and returns those runs.
func position(stdout io.Writer, journalPath string, claim *savanna.Claim, runs []cheetah.Run) []cheetah.Run {
	st := claim.State
	fmt.Fprintf(stdout, "savanna: %s: %d record(s) — %d done, %d failed on last attempt, %d in flight at crash\n",
		journalPath, claim.Records, len(st.Done), len(st.Failed), len(st.InFlight))
	for _, p := range st.QuarantinedList() {
		fmt.Fprintf(stdout, "savanna: quarantined point: %s\n", p)
	}
	todo := claim.Owed(runs)
	fmt.Fprintf(stdout, "savanna: %d of %d run(s) remaining\n", len(todo), len(runs))
	return todo
}

// runLocal claims the campaign as every incarnation does, then executes the
// runs its journal owes in this process, carrying the journal's quarantine
// decisions forward. Losing the claim to another incarnation fences the
// journal and cancels the campaign: in-flight processes are killed and the
// remaining runs skipped.
func runLocal(stdout, stderr io.Writer, m *cheetah.Manifest, sets int, holder, journalPath string, policy *resilience.Config, eng *savanna.LocalEngine) (resilience.CompletenessReport, error) {
	claim, err := savanna.ClaimCampaign(context.Background(), savanna.ClaimConfig{
		Journal: journalPath, Holder: holder, LeaseTTL: coordinatorLeaseTTL, Resume: true,
		Dir: eng.CampaignDir, Events: eng.Events,
	})
	if err != nil {
		return resilience.CompletenessReport{}, err
	}
	todo := position(stdout, journalPath, claim, m.Runs)
	if claim.Reconciled > 0 {
		fmt.Fprintf(stdout, "savanna: %d run status(es) brought in line with the journal\n", claim.Reconciled)
	}
	policy.Journal = claim.Journal
	policy.Restore = claim.State.QuarantinedList()
	eng.Resilience = policy
	ctx := claim.Hold(context.Background())
	var report resilience.CompletenessReport
	if sets > 0 {
		_, report, err = eng.RunSets(ctx, m.Campaign.Name, todo, sets)
	} else {
		_, report, err = eng.RunCampaign(ctx, m.Campaign.Name, todo)
	}
	if cause := context.Cause(ctx); cause != nil {
		fmt.Fprintln(stderr, "savanna: claim lost:", cause)
	}
	if rerr := claim.Release(); err == nil {
		err = rerr
	}
	return report, err
}

// coordinate runs one failover-capable coordinator incarnation over the
// campaign: it claims the campaign, fences the journal at a fresh epoch and
// dispatches the runs the journal still owes to the workers that connect.
func coordinate(stdout io.Writer, listen string, standby bool, holder string, m *cheetah.Manifest, journalPath string, eng *remote.Engine) (resilience.CompletenessReport, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return resilience.CompletenessReport{}, err
	}
	defer ln.Close()
	eng.Listener = ln
	role := "coordinating"
	if standby {
		role = "standing by"
	}
	fmt.Fprintf(stdout, "savanna: %s on %s as %q — join with: fairctl worker -connect %s -- <cmd> {param}...\n",
		role, ln.Addr(), holder, ln.Addr())
	_, report, info, err := remote.Coordinate(context.Background(), remote.CoordinateConfig{
		Engine:   eng,
		Campaign: m.Campaign.Name,
		Runs:     m.Runs,
		Journal:  journalPath,
		Holder:   holder,
		Resume:   true,
		Standby:  standby,
		LeaseTTL: coordinatorLeaseTTL,
	})
	if err == nil {
		fmt.Fprintln(stdout, "savanna:", info)
	}
	return report, err
}

// writeOutput renders one output file in memory and writes it through
// appendlog, whose WriteFile reports Close's error as well as Write's.
func writeOutput(path string, render func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return err
	}
	return appendlog.WriteFile(path, buf.Bytes(), os.O_CREATE|os.O_TRUNC, 0o644)
}

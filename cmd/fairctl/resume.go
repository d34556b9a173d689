package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
)

// resumeCmd implements "fairctl resume": replay a campaign's attempt
// journal to find where a killed process stopped, report that position,
// and — given a command template after "--" — re-execute only the
// remaining runs with the full resilience stack armed. New attempts append
// to the same journal, so a second crash resumes again from the union.
//
// Without a command the subcommand is a pure probe: it prints the resume
// state and exits 3 when runs remain (mirroring "fairctl health").
func resumeCmd(args []string) {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	dir := fs.String("campaign", "", "materialised campaign directory")
	journalPath := fs.String("journal", "", "attempt journal (default <campaign>/attempts.jsonl)")
	workers := fs.Int("workers", 4, "worker pool size")
	maxAttempts := fs.Int("max-attempts", 3, "executions per run, first try included")
	baseDelay := fs.Duration("base-delay", time.Second, "first backoff delay (0 retries immediately)")
	runDeadline := fs.Duration("run-deadline", 0, "per-attempt deadline (0 = none)")
	quarantineAfter := fs.Int("quarantine-after", 0, "side-line a sweep point after N consecutive failures (0 = off)")
	maxFailureFraction := fs.Float64("max-failure-fraction", 0, "abort when the failed fraction exceeds this (0 = off)")
	timeout := fs.Duration("timeout", 0, "per-process walltime for the command template (0 = none)")
	reportOut := fs.String("report", "", "write the completeness report JSON here")
	fs.Parse(args)

	if *dir == "" {
		fatal(fmt.Errorf("resume needs -campaign"))
	}
	if *journalPath == "" {
		*journalPath = filepath.Join(*dir, "attempts.jsonl")
	}

	m, err := cheetah.LoadCampaignDir(*dir)
	if err != nil {
		fatal(err)
	}
	restoreRunFiles(m, *dir)
	recs, err := resilience.ReadJournalFile(*journalPath)
	if err != nil {
		fatal(err)
	}
	st := resilience.Replay(recs)
	ids := make([]string, len(m.Runs))
	for i, r := range m.Runs {
		ids[i] = r.ID
	}
	remaining := st.Remaining(ids)

	fmt.Printf("fairctl: %s: %d record(s) — %d done, %d failed on last attempt, %d in flight at crash\n",
		*journalPath, len(recs), len(st.Done), len(st.Failed), len(st.InFlight))
	for _, p := range st.QuarantinedList() {
		fmt.Printf("fairctl: quarantined point: %s\n", p)
	}
	fmt.Printf("fairctl: %d of %d run(s) remaining\n", len(remaining), len(m.Runs))

	command := fs.Args()
	if len(command) == 0 {
		if len(remaining) > 0 {
			fmt.Println("fairctl: rerun with a command template after -- to execute the remainder")
			os.Exit(3)
		}
		return
	}
	// The journal is the record, the directory's statuses its projection: a
	// run the journal proves terminal but a crash left "running" is put
	// right before anything is dispatched (resume skips it, so nothing else
	// would).
	if n, err := savanna.ReconcileStatus(*dir, st); err != nil {
		fmt.Fprintln(os.Stderr, "fairctl: reconciling run statuses:", err)
	} else if n > 0 {
		fmt.Printf("fairctl: %d run status(es) brought in line with the journal\n", n)
	}
	if len(remaining) == 0 {
		fmt.Println("fairctl: nothing to resume")
		return
	}

	want := make(map[string]bool, len(remaining))
	for _, id := range remaining {
		want[id] = true
	}
	var todo []cheetah.Run
	for _, r := range m.Runs {
		if want[r.ID] {
			todo = append(todo, r)
		}
	}

	journal, err := resilience.OpenJournal(*journalPath)
	if err != nil {
		fatal(err)
	}
	defer journal.Close()

	prov := provenance.NewStore()
	eng := &savanna.LocalEngine{
		Executor:    &savanna.ProcessExecutor{Command: command, WorkRoot: *dir, Timeout: *timeout},
		Workers:     *workers,
		Prov:        prov,
		CampaignDir: *dir,
		Resilience: &resilience.Config{
			Retry:           resilience.RetryPolicy{MaxAttempts: *maxAttempts, BaseDelay: *baseDelay},
			QuarantineAfter: *quarantineAfter,
			RunDeadline:     *runDeadline,
			Stop:            resilience.StopPolicy{MaxFailureFraction: *maxFailureFraction},
			Journal:         journal,
			Restore:         st.QuarantinedList(),
		},
	}
	_, report, err := eng.RunCampaign(context.Background(), m.Campaign.Name, todo)
	if err != nil {
		fatal(err)
	}
	fmt.Println("fairctl:", report.String())
	if *reportOut != "" {
		if err := report.WriteFile(*reportOut); err != nil {
			fatal(err)
		}
		fmt.Printf("fairctl: report written to %s\n", *reportOut)
	}
	if !report.Complete() {
		os.Exit(3)
	}
}

// restoreRunFiles re-creates the run directories and params.json files of
// the campaign directory dir that a power loss took back — only campaign.json
// is fsynced at create — and says so on stderr when there were any. It
// returns how many files it wrote.
func restoreRunFiles(m *cheetah.Manifest, dir string) int {
	n, err := m.RestoreRunFiles(dir)
	if err != nil {
		fatal(fmt.Errorf("restoring run files from campaign.json: %w", err))
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "fairctl: %s: %d run file(s) re-created from campaign.json\n", dir, n)
	}
	return n
}

package bench

import (
	"bytes"
	"fmt"
	"os"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
)

// readBack is what the output checks learn while reading the campaign's
// durable state back; the traced run reports it as counts.
type readBack struct {
	failedRuns     int   // runs not terminal-success (not cached, on memo_warm)
	resumeNs       int64 // ReadJournalFile + Replay + Remaining
	resumeRecords  int   // records that replay read
	journalRecords int
	journalBytes   int64
}

// check verifies one repetition's outputs. Any error fails the command: a
// number measured on a campaign that lost or double-counted a run is not a
// number.
func (c *campaign) check(env *repEnv, results []savanna.RunResult, report resilience.CompletenessReport) (readBack, error) {
	var rb readBack
	n := len(c.in.Runs)
	if !report.Complete() {
		return rb, fmt.Errorf("completeness report: %s", report)
	}
	if len(results) != n {
		return rb, fmt.Errorf("%d results for %d runs", len(results), n)
	}
	for _, r := range results {
		if r.Status != provenance.StatusSucceeded || r.Cached != c.wantCached {
			rb.failedRuns++
		}
	}
	if rb.failedRuns > 0 {
		return rb, fmt.Errorf("%d of %d runs not terminal-success (cached=%v wanted)", rb.failedRuns, n, c.wantCached)
	}

	// Exactly one execution per run (none when everything must be cached).
	calls, extra := 0, int64(0)
	for _, st := range c.stamps {
		calls += st.calls()
		extra += st.extra.Load()
	}
	wantCalls := n
	if c.wantCached {
		wantCalls = 0
	}
	if calls != wantCalls || extra != 0 {
		return rb, fmt.Errorf("executor ran %d(+%d) times, want %d", calls, extra, wantCalls)
	}

	ids := make([]string, n)
	for i, r := range c.in.Runs {
		ids[i] = r.ID
	}
	if c.journal != "" {
		// Resume-ready: what a restarted coordinator does before it can
		// dispatch. On memo_warm this reads the cold campaign's journal.
		t0 := env.clk.now()
		recs, err := resilience.ReadJournalFile(c.resumeJournal)
		if err != nil {
			return rb, err
		}
		owed := resilience.Replay(recs).Remaining(ids)
		rb.resumeNs, rb.resumeRecords = env.clk.now()-t0, len(recs)
		env.rec.add("resilience.ReadJournalFile+Replay+Remaining", laneSeams, t0, t0+rb.resumeNs)
		if len(owed) != 0 {
			return rb, fmt.Errorf("journal %s still owes %d runs", c.resumeJournal, len(owed))
		}
		if c.journal != c.resumeJournal {
			if recs, err = resilience.ReadJournalFile(c.journal); err != nil {
				return rb, err
			}
		}
		if err := checkTerminals(c.journal, recs, ids); err != nil {
			return rb, err
		}
		fi, err := os.Stat(c.journal)
		if err != nil {
			return rb, err
		}
		rb.journalRecords, rb.journalBytes = len(recs), fi.Size()
	}

	if c.statusFiles {
		sum, err := cheetah.Status(c.campaignDir)
		if err != nil {
			return rb, err
		}
		if sum.Total != n || sum.ByStatus[cheetah.RunSucceeded] != n {
			return rb, fmt.Errorf("campaign directory: %v of %d succeeded", sum.ByStatus, sum.Total)
		}
	}
	if c.prov != nil && c.prov.Len() != n {
		return rb, fmt.Errorf("provenance holds %d records, want %d", c.prov.Len(), n)
	}
	if c.doneCounter != "" {
		if got := c.metrics.Counter(c.doneCounter).Value(); got != int64(n) {
			return rb, fmt.Errorf("%s = %d, want %d", c.doneCounter, got, n)
		}
	}
	if c.wantCached {
		for i := range c.in.Runs {
			got, err := os.ReadFile(outPath(c.restoreDir, i))
			if err != nil {
				return rb, err
			}
			if !bytes.Equal(got, c.in.Output(i)) {
				return rb, fmt.Errorf("restored output of run %d differs from the seeded original", i)
			}
		}
	}
	if d := c.tracer.Dropped(); d != 0 {
		return rb, fmt.Errorf("tracer dropped %d spans", d)
	}
	if d := c.events.Dropped(); d != 0 && !c.eventDropsExpected {
		return rb, fmt.Errorf("event log dropped %d events", d)
	}
	return rb, nil
}

// checkTerminals requires exactly one terminal success (or cached) record
// per run: nothing lost, nothing counted twice.
func checkTerminals(path string, recs []resilience.AttemptRecord, ids []string) error {
	terminal := make(map[string]int, len(ids))
	for _, r := range recs {
		if r.Event == resilience.AttemptSuccess || r.Event == resilience.AttemptCached {
			terminal[r.Run]++
		}
	}
	for _, id := range ids {
		if terminal[id] != 1 {
			return fmt.Errorf("journal %s: run %s has %d terminal success records, want 1", path, id, terminal[id])
		}
	}
	return nil
}

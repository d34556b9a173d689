package remote

import (
	"context"
	"fmt"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// CoordinateConfig drives one coordinator incarnation through the
// epoch-fenced handover protocol (DESIGN.md §4j): claim the campaign's
// lease file, fence the attempt journal at a fresh epoch, replay it to
// find the runs still owed, and dispatch only those. The same entry point
// serves all three roles — first coordinator, `-resume` restart, and warm
// standby — they differ only in what the journal and lease file already
// contain.
type CoordinateConfig struct {
	// Engine is the dispatch engine to run; Coordinate owns its Epoch and
	// its Resilience journal wiring.
	Engine *Engine
	// Campaign names the campaign; Runs is the FULL run list — Coordinate
	// filters out what the journal proves done.
	Campaign string
	Runs     []cheetah.Run
	// Journal is the attempt journal path (required — failover without a
	// durable ledger is guesswork).
	Journal string
	// Holder names this incarnation in epoch records and the lease file
	// (default "coordinator").
	Holder string
	// Resume permits opening a journal that already has records. Without
	// it a non-empty journal is an error — accidental re-use of a finished
	// campaign's ledger should be loud. Standby implies Resume.
	Resume bool
	// Standby makes this incarnation wait for the active claim on the
	// lease file to go stale before taking over — the warm-standby mode.
	Standby bool
	// LeaseFile is the coordinator claim file (default Journal + ".lease").
	LeaseFile string
	// LeaseTTL is the claim duration (default 3s; renewed at TTL/3).
	// TakeoverPoll paces a standby's staleness checks (default TTL/4).
	LeaseTTL     time.Duration
	TakeoverPoll time.Duration
	// AutoSync is the journal's batched-fsync stride (default 32 appends;
	// <0 disables). Batching bounds the window a power loss can erase
	// without paying fsync latency on every record — a crash in the window
	// only re-executes runs, never double-counts them.
	AutoSync int
}

// HandoverInfo reports what the incarnation found when it fenced in.
type HandoverInfo struct {
	// Epoch is the fenced journal epoch this incarnation ran at.
	Epoch int64
	// Holder echoes the incarnation name.
	Holder string
	// Total, Done and Dispatched describe the replay: Total runs in the
	// campaign, Done already terminal-success in the journal, Dispatched
	// actually handed to this incarnation's engine.
	Total, Done, Dispatched int
}

func (h HandoverInfo) String() string {
	return fmt.Sprintf("epoch %d (%s): %d/%d done in journal, dispatching %d",
		h.Epoch, h.Holder, h.Done, h.Total, h.Dispatched)
}

// Coordinate runs one coordinator incarnation to completion. The returned
// results are in the order of the dispatched (not-yet-done) runs; the
// completeness report covers the same set, so Complete() means "everything
// the journal still owed is now terminal". Losing the lease file to a
// successor mid-campaign fences the journal and aborts the engine — the
// deposed incarnation stops writing history rather than fighting back.
func Coordinate(ctx context.Context, cfg CoordinateConfig) ([]savanna.RunResult, resilience.CompletenessReport, HandoverInfo, error) {
	var info HandoverInfo
	e := cfg.Engine
	if e == nil {
		return nil, resilience.CompletenessReport{}, info, fmt.Errorf("remote: coordinate needs an engine")
	}
	if cfg.Journal == "" {
		return nil, resilience.CompletenessReport{}, info, fmt.Errorf("remote: coordinate needs a journal path")
	}
	holder := cfg.Holder
	if holder == "" {
		holder = "coordinator"
	}
	info.Holder = holder
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	leaseFile := cfg.LeaseFile
	if leaseFile == "" {
		leaseFile = cfg.Journal + ".lease"
	}

	// Standby: tail the lease file until the active claim goes stale.
	if cfg.Standby {
		if err := resilience.WaitFileLeaseStale(ctx, leaseFile, ttl, cfg.TakeoverPoll); err != nil {
			return nil, resilience.CompletenessReport{}, info, err
		}
	}
	flease, err := resilience.AcquireFileLease(leaseFile, holder, ttl)
	if err != nil {
		return nil, resilience.CompletenessReport{}, info, err
	}
	defer flease.Release()

	// Replay-then-fence: read what the journal owes, then durably bump the
	// epoch so every past incarnation is fenced out before the first
	// dispatch.
	recs, err := resilience.ReadJournalFile(cfg.Journal)
	if err != nil {
		return nil, resilience.CompletenessReport{}, info, err
	}
	if len(recs) > 0 && !cfg.Resume && !cfg.Standby {
		return nil, resilience.CompletenessReport{}, info,
			fmt.Errorf("remote: journal %s has %d record(s); pass Resume to take the campaign over", cfg.Journal, len(recs))
	}
	journal, err := resilience.OpenJournal(cfg.Journal)
	if err != nil {
		return nil, resilience.CompletenessReport{}, info, err
	}
	defer journal.Close()
	if cfg.AutoSync >= 0 {
		n := cfg.AutoSync
		if n == 0 {
			n = 32
		}
		journal.SetAutoSync(n)
	}
	epoch, err := journal.OpenEpoch(holder)
	if err != nil {
		return nil, resilience.CompletenessReport{}, info, err
	}
	info.Epoch = epoch
	flease.SetEpoch(epoch)
	flease.Renew()

	st := resilience.Replay(recs)
	var todo []cheetah.Run
	for _, r := range cfg.Runs {
		if !st.Done[r.ID] {
			todo = append(todo, r)
		}
	}
	info.Total = len(cfg.Runs)
	info.Done = len(cfg.Runs) - len(todo)
	info.Dispatched = len(todo)

	// Wire the engine to the fenced journal. A caller-provided resilience
	// config keeps its policy knobs; the journal and the quarantine restore
	// set are Coordinate's to own.
	var rcfg resilience.Config
	if e.Resilience != nil {
		rcfg = *e.Resilience
	}
	rcfg.Journal = journal
	rcfg.Restore = append(rcfg.Restore, st.QuarantinedList()...)
	e.Resilience = &rcfg
	e.Epoch = epoch

	e.telemetryInit()
	if epoch > 1 {
		e.mTakeovers.Inc()
	}
	e.Events.Append(eventlog.Info, eventlog.CoordinatorEpoch, cfg.Campaign, 0,
		telemetry.String("holder", holder), telemetry.Int("epoch", int(epoch)),
		telemetry.Int("done", info.Done), telemetry.Int("dispatching", len(todo)))

	// A predecessor that died between a journal line and its status line
	// left that run "running" in the campaign directory, and nothing below
	// would touch it again: the journal's verdicts go in before any dispatch.
	if e.CampaignDir != "" && len(recs) > 0 {
		if _, err := savanna.ReconcileStatus(e.CampaignDir, st); err != nil {
			e.Events.Append(eventlog.Warn, eventlog.CampaignStatusLog, err.Error(), 0)
		}
	}

	// Renew the claim at TTL/3 until the campaign ends. A renewal that
	// finds another holder means a standby declared us dead: fence the
	// journal first (no more history under a stale epoch), then abort.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	renewStop := make(chan struct{})
	defer close(renewStop)
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-renewStop:
				return
			case <-t.C:
			}
			if err := flease.Renew(); err != nil {
				journal.Fence()
				e.Events.Append(eventlog.Error, eventlog.CoordinatorFenced, err.Error(), 0,
					telemetry.String("holder", holder), telemetry.Int("epoch", int(epoch)))
				cancel()
				return
			}
		}
	}()

	results, report, err := e.RunCampaign(runCtx, cfg.Campaign, todo)
	return results, report, info, err
}

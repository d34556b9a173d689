package remote

import (
	"cmp"
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
// epoch-fenced handover protocol (DESIGN.md §4j): take the campaign with
// savanna.ClaimCampaign — claim Journal + ".lease", replay the attempt
// journal, fence it at a fresh epoch — and dispatch only the runs it still
// owes. The same entry point serves all three roles — first coordinator,
// `-resume` restart, and warm standby — they differ only in what the journal
// and lease file already contain.
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
	// Resume, Standby and LeaseTTL are the claim's (savanna.ClaimConfig):
	// Resume permits a journal with records, Standby waits for the active
	// claim to go stale and LeaseTTL is the claim duration (default 3s).
	Resume   bool
	Standby  bool
	LeaseTTL time.Duration
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
	holder := cmp.Or(cfg.Holder, "coordinator")
	info.Holder = holder
	claim, err := savanna.ClaimCampaign(ctx, savanna.ClaimConfig{
		Journal: cfg.Journal, Holder: holder, LeaseTTL: cfg.LeaseTTL,
		Standby: cfg.Standby, Resume: cfg.Resume,
		Dir: e.CampaignDir, Events: e.Events,
	})
	if err != nil {
		return nil, resilience.CompletenessReport{}, info, err
	}
	defer claim.Release()
	if cfg.AutoSync >= 0 {
		claim.Journal.SetAutoSync(cmp.Or(cfg.AutoSync, 32))
	}
	todo := claim.Owed(cfg.Runs)
	info.Epoch, info.Total, info.Done, info.Dispatched = claim.Epoch, len(cfg.Runs), len(cfg.Runs)-len(todo), len(todo)

	// Wire the engine to the fenced journal. A caller-provided resilience
	// config keeps its policy knobs; the journal and the quarantine restore
	// set are Coordinate's to own.
	var rcfg resilience.Config
	if e.Resilience != nil {
		rcfg = *e.Resilience
	}
	rcfg.Journal = claim.Journal
	rcfg.Restore = append(rcfg.Restore, claim.State.QuarantinedList()...)
	e.Resilience = &rcfg
	e.Epoch = claim.Epoch

	e.telemetryInit()
	if claim.Epoch > 1 {
		e.mTakeovers.Inc()
	}
	e.Events.Append(eventlog.Info, eventlog.CoordinatorEpoch, cfg.Campaign, 0,
		telemetry.String("holder", holder), telemetry.Int("epoch", int(claim.Epoch)),
		telemetry.Int("done", info.Done), telemetry.Int("dispatching", len(todo)))

	results, report, err := e.RunCampaign(claim.Hold(ctx), cfg.Campaign, todo)
	return results, report, info, err
}

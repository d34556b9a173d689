package savanna

import (
	"context"
	"fmt"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// ClaimConfig is what an incarnation takes its campaign with. Standby waits
// for the active claim to go stale, polling every TTL/4, and implies Resume. Without Resume a journal that has records is
// refused: re-using a finished campaign's ledger by accident should be loud.
// Dir is the campaign directory whose status log is reconciled, Events where
// a failed reconcile and a lost claim are said.
type ClaimConfig struct {
	Journal  string        // the attempt journal; the claim file is Journal + ".lease"
	Holder   string        // names the incarnation in the claim file and its epoch record
	LeaseTTL time.Duration // claim duration (default 3s); Hold renews at TTL/3
	Standby  bool
	Resume   bool
	Dir      string
	Events   *eventlog.Log
}

// Claim is one incarnation's hold on a campaign: the claim file, and the
// Journal fenced at Epoch. State replays the Records journal records found
// when it was taken; Reconciled counts the status lines put right.
type Claim struct {
	Journal    *resilience.Journal
	Epoch      int64
	State      *resilience.ResumeState
	Records    int
	Reconciled int

	cfg        ClaimConfig
	lease      *resilience.FileLease
	stop, held chan struct{}
}

// ClaimCampaign starts an incarnation, local or coordinator, the one way
// there is (DESIGN.md §4j): wait out the active claim if Standby, claim the
// lease file — a live claim by another holder is an error naming it — replay
// the journal, and fence it at epoch + 1 before anything is dispatched. When
// the replay finds records, the journal's verdicts go into Dir's status log: a
// predecessor that died between a journal line and its status line left that
// run "running", and it is not owed, so nothing later would put it right.
func ClaimCampaign(ctx context.Context, cfg ClaimConfig) (_ *Claim, err error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	leaseFile := cfg.Journal + ".lease"
	if cfg.Standby {
		if err := resilience.WaitFileLeaseStale(ctx, leaseFile, cfg.LeaseTTL); err != nil {
			return nil, err
		}
	}
	lease, err := resilience.AcquireFileLease(leaseFile, cfg.Holder, cfg.LeaseTTL)
	if err != nil {
		return nil, err
	}
	c := &Claim{cfg: cfg, lease: lease}
	defer func() {
		if err != nil {
			c.Release()
		}
	}()
	recs, err := resilience.ReadJournalFile(cfg.Journal)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 && !cfg.Resume && !cfg.Standby {
		return nil, fmt.Errorf("savanna: journal %s has %d record(s); pass Resume to take the campaign over", cfg.Journal, len(recs))
	}
	if c.Journal, err = resilience.OpenJournal(cfg.Journal); err != nil {
		return nil, err
	}
	if c.Epoch, err = c.Journal.OpenEpoch(cfg.Holder); err != nil {
		return nil, err
	}
	lease.SetEpoch(c.Epoch)
	if err := lease.Renew(); err != nil {
		return nil, err
	}
	c.State, c.Records = resilience.Replay(recs), len(recs)
	if cfg.Dir != "" && len(recs) > 0 {
		if c.Reconciled, err = c.reconcile(); err != nil {
			cfg.Events.Append(eventlog.Warn, eventlog.CampaignStatusLog, err.Error(), 0)
		}
	}
	return c, nil
}

// reconcile appends the journal's verdict to Dir's status log for every run
// the replay proves terminal (Done → succeeded, Failed → failed) whose status
// differs, and returns how many it appended.
func (c *Claim) reconcile() (int, error) {
	statuses, err := cheetah.RunStatuses(c.cfg.Dir)
	if err != nil {
		return 0, err
	}
	var verdicts []cheetah.StatusLine
	for id, have := range statuses {
		switch {
		case c.State.Done[id] && have != cheetah.RunSucceeded:
			verdicts = append(verdicts, cheetah.StatusLine{Run: id, Status: cheetah.RunSucceeded})
		case c.State.Failed[id] && have != cheetah.RunFailed:
			verdicts = append(verdicts, cheetah.StatusLine{Run: id, Status: cheetah.RunFailed})
		}
	}
	if len(verdicts) == 0 {
		return 0, nil
	}
	log, err := cheetah.OpenStatusLog(c.cfg.Dir)
	if err != nil {
		return 0, err
	}
	if err := log.Set(verdicts...); err != nil {
		log.Close()
		return 0, err
	}
	return len(verdicts), log.Close()
}

// Owed filters runs to those the journal holds no success for, in order.
// Quarantined runs stay owed; State carries the quarantine decisions. With
// nothing done the result is runs itself: callers treat both as read-only.
func (c *Claim) Owed(runs []cheetah.Run) []cheetah.Run {
	if len(c.State.Done) == 0 {
		return runs
	}
	todo := make([]cheetah.Run, 0, max(len(runs)-len(c.State.Done), 0))
	for _, r := range runs {
		if !c.State.Done[r.ID] {
			todo = append(todo, r)
		}
	}
	return todo
}

// Hold renews the claim at TTL/3 until Release, and returns a context that
// also ends when the claim is lost. A renewal that finds another holder means
// a successor declared this incarnation dead: the journal is fenced first, so
// no history is written under a stale epoch, then coordinator.fenced is said
// and the context cancelled with the renewal's error as its cause.
func (c *Claim) Hold(ctx context.Context) context.Context {
	ctx, cancel := context.WithCancelCause(ctx)
	c.stop, c.held = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(c.held)
		defer cancel(nil)
		t := time.NewTicker(c.cfg.LeaseTTL / 3)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
			if err := c.lease.Renew(); err != nil {
				c.Journal.Fence()
				c.cfg.Events.Append(eventlog.Error, eventlog.CoordinatorFenced, err.Error(), 0,
					telemetry.String("holder", c.cfg.Holder), telemetry.Int("epoch", int(c.Epoch)))
				cancel(err)
				return
			}
		}
	}()
	return ctx
}

// Release stops Hold's renewals, closes the journal and drops the claim if it
// is still this incarnation's. Call it once.
func (c *Claim) Release() error {
	if c.stop != nil {
		close(c.stop)
		<-c.held
	}
	err := c.Journal.Close()
	if lerr := c.lease.Release(); err == nil {
		err = lerr
	}
	return err
}

package savanna

import (
	"sync"

	"fairflow/internal/cheetah"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry/eventlog"
)

// StatusMirror projects one campaign's run transitions into its directory's
// status log (cheetah.StatusLog) for the engine that runs it. The attempt
// journal is the record and this is its projection, so a failed write never
// fails a run: the first one raises a single Warn event and the campaign
// carries on. A nil StatusMirror — an engine with no CampaignDir — does
// nothing.
type StatusMirror struct {
	log    *cheetah.StatusLog
	events *eventlog.Log
	span   int64
	warn   sync.Once
}

// OpenStatusMirror opens dir's status log for a campaign whose events
// correlate to span. An empty dir yields nil; so does a log that cannot be
// opened, after a Warn event saying why.
func OpenStatusMirror(dir string, events *eventlog.Log, span int64) *StatusMirror {
	if dir == "" {
		return nil
	}
	log, err := cheetah.OpenStatusLog(dir)
	if err != nil {
		events.Append(eventlog.Warn, eventlog.CampaignStatusLog, err.Error(), span)
		return nil
	}
	return &StatusMirror{log: log, events: events, span: span}
}

// Set appends one transition. Engines call it after the journal line for the
// same transition, so the log never runs ahead of the journal.
func (m *StatusMirror) Set(runID string, status cheetah.RunStatus) {
	if m == nil {
		return
	}
	if err := m.log.Set(runID, status); err != nil {
		m.warn.Do(func() {
			m.events.Append(eventlog.Warn, eventlog.CampaignStatusLog, err.Error(), m.span)
		})
	}
}

// Close makes every status set durable (one fsync) and releases the log; a
// failure is reported as an event, like Set's.
func (m *StatusMirror) Close() {
	if m == nil {
		return
	}
	if err := m.log.Close(); err != nil {
		m.events.Append(eventlog.Warn, eventlog.CampaignStatusLog, err.Error(), m.span)
	}
}

// ReconcileStatus brings dir's status log in line with a replayed journal
// before a resume dispatches anything: every run the journal proves terminal
// (Done → succeeded, Failed → failed) whose recorded status differs gets the
// journal's verdict appended. A crash between a journal line and its status
// line otherwise leaves the run "running" for good, since resume skips it. It
// returns how many statuses it corrected.
func ReconcileStatus(dir string, st *resilience.ResumeState) (int, error) {
	statuses, err := cheetah.RunStatuses(dir)
	if err != nil {
		return 0, err
	}
	verdicts := map[string]cheetah.RunStatus{}
	for id, have := range statuses {
		switch {
		case st.Done[id] && have != cheetah.RunSucceeded:
			verdicts[id] = cheetah.RunSucceeded
		case st.Failed[id] && have != cheetah.RunFailed:
			verdicts[id] = cheetah.RunFailed
		}
	}
	if len(verdicts) == 0 {
		return 0, nil
	}
	log, err := cheetah.OpenStatusLog(dir)
	if err != nil {
		return 0, err
	}
	for id, status := range verdicts {
		if err := log.Set(id, status); err != nil {
			log.Close()
			return 0, err
		}
	}
	return len(verdicts), log.Close()
}

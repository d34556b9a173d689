package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"fairflow/internal/appendlog"
)

// Attempt journal events.
const (
	// AttemptStart is written before an execution begins; a start with no
	// matching terminal event marks a run that was in flight when the engine
	// process died.
	AttemptStart = "start"
	// AttemptSuccess ends a run: it executed and completed.
	AttemptSuccess = "success"
	// AttemptCached ends a run satisfied from the memo cache.
	AttemptCached = "cached"
	// AttemptFailure records one failed attempt (the run may retry).
	AttemptFailure = "failure"
	// AttemptKilled records an attempt cut off by infrastructure (node
	// failure, walltime); the run requeues without consuming its budget.
	AttemptKilled = "killed"
	// AttemptQuarantined marks the run's sweep point side-lined; the run is
	// terminal-failed and resume must not retry it.
	AttemptQuarantined = "quarantined"
	// AttemptSkipped marks a run never attempted because the campaign
	// aborted first.
	AttemptSkipped = "skipped"
	// AttemptDispatched records a run handed to a remote worker under a
	// lease. Dispatch is not execution: on replay the run is still owed, so
	// a coordinator crash between dispatch and the worker's result re-issues
	// the run — the exactly-once ledger spans both processes.
	AttemptDispatched = "dispatched"
	// AttemptLost records a dispatched run reclaimed from an expired worker
	// lease; like AttemptKilled it requeues without consuming the run's
	// attempt budget (the fault was the worker's, not the run's).
	AttemptLost = "lost"
	// AttemptStolen records a dispatched run relinquished by its worker
	// under a steal request and requeued. Like AttemptLost it leaves the run
	// owed on replay: a coordinator that died between the steal and the next
	// dispatch still re-issues the run.
	AttemptStolen = "stolen"
)

// Lease journal events. Lease records share the attempt journal (they are
// part of the same exactly-once story) under the pseudo run id
// "worker/<name>", which Replay leaves pending and Remaining never matches.
const (
	// LeaseGranted marks a worker admitted to the campaign.
	LeaseGranted = "lease-granted"
	// LeaseExpired marks a lease reclaimed after missed heartbeats; every
	// run dispatched under it gets a paired AttemptLost record.
	LeaseExpired = "lease-expired"
	// LeaseReleased marks a clean worker departure (drain handshake).
	LeaseReleased = "lease-released"
)

// LeaseRunID renders the pseudo run id lease records journal under.
func LeaseRunID(worker string) string { return "worker/" + worker }

// EpochOpened marks a coordinator incarnation taking ownership of the
// journal. It is journaled under EpochRunID with Epoch set to the new fenced
// epoch and Worker naming the incarnation. Replay surfaces the highest epoch
// seen; a successor always opens at that value + 1, so epochs are strictly
// increasing across handovers and workers can reject traffic from any
// incarnation below the latest — the split-brain fence.
const EpochOpened = "epoch-opened"

// EpochRunID is the pseudo run id epoch records journal under. Like lease
// pseudo ids it stays pending on replay and never matches a real run.
const EpochRunID = "coordinator/epoch"

// AttemptRecord is one line of the attempt journal.
type AttemptRecord struct {
	Run     string    `json:"run"`
	Point   string    `json:"point,omitempty"` // sweep-point key (quarantine identity)
	Attempt int       `json:"attempt"`
	Event   string    `json:"event"`
	Class   Class     `json:"class,omitempty"`
	Time    time.Time `json:"time"`
	Err     string    `json:"err,omitempty"`
	// Worker names the leaseholder for dispatched/lost/lease-* records —
	// the remote execution plane's audit trail.
	Worker string `json:"worker,omitempty"`
	// Epoch is the coordinator incarnation that wrote the record (0 before
	// failover existed). Meaningful on epoch-opened records, where it carries
	// the newly fenced epoch.
	Epoch int64 `json:"epoch,omitempty"`
}

// Journal is the append-only attempt log, written through an appendlog.Log:
// a crash can lose at most the final, partially-written line — which the
// decoder skips and the next OpenJournal cuts — and never corrupts earlier
// records.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *appendlog.Log
	buf  []byte // one Append's lines, reused across Appends
	// autoSync > 0 arms the batched-fsync policy: an Append that brings the
	// records written since the last fsync to autoSync or more fsyncs
	// inline, bounding how much accounting a power loss can take without
	// paying fsync latency on every record. unsynced counts those records,
	// syncs the fsyncs this handle has made.
	autoSync int
	unsynced int
	syncs    int64
	// fenced stops all further writes: a coordinator that lost its lease
	// must not keep journaling under a successor's epoch.
	fenced bool
}

// ErrJournalFenced is returned by Append once Fence has been called.
var ErrJournalFenced = fmt.Errorf("resilience: journal fenced")

// OpenJournal opens (creating if needed) the attempt journal at path. A
// torn final line left by a killed process is cut away, so the resumed
// process's appends start on a clean line boundary instead of concatenating
// into the wreckage. The torn line is never a record anyone was told of: a
// batch is one write(2), so its last newline lands with the rest of it or
// the batch was reported failed.
func OpenJournal(path string) (*Journal, error) {
	f, err := appendlog.OpenLog(path)
	if err != nil {
		return nil, fmt.Errorf("resilience: opening journal: %w", err)
	}
	return &Journal{path: path, f: f}, nil
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Append journals recs, in order, with one write(2): all of them or — when
// it returns an error — none that a reader will see. A nil journal swallows
// the write, so engines without a journal configured pay only a nil check. A
// fenced journal rejects it: a deposed coordinator must not keep writing
// history under its successor's epoch.
func (j *Journal) Append(recs ...AttemptRecord) error {
	if j == nil || len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fenced {
		return ErrJournalFenced
	}
	buf := j.buf[:0]
	for i := range recs {
		var err error
		if buf, err = appendJournalLine(buf, &recs[i]); err != nil {
			return err
		}
	}
	j.buf = buf
	if err := j.f.Append(buf); err != nil {
		return err
	}
	if j.autoSync > 0 {
		if j.unsynced += len(recs); j.unsynced >= j.autoSync {
			return j.syncLocked()
		}
	}
	return nil
}

// syncLocked fsyncs the file and restarts the auto-sync stride.
func (j *Journal) syncLocked() error {
	j.unsynced = 0
	j.syncs++
	return j.f.Sync()
}

// Syncs returns how many fsyncs this handle has made (0 for a nil journal).
func (j *Journal) Syncs() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// appendJournalLine appends rec's line, newline included, to buf: byte for
// byte json.Marshal(rec) + "\n". Run ids, point keys, event and worker names
// are plain ASCII and times sit in years 0–9999, which need no escaping; any
// other value takes the general encoder.
func appendJournalLine(buf []byte, rec *AttemptRecord) ([]byte, error) {
	buf = appendJSONString(append(buf, `{"run":`...), rec.Run)
	if rec.Point != "" {
		buf = appendJSONString(append(buf, `,"point":`...), rec.Point)
	}
	buf = strconv.AppendInt(append(buf, `,"attempt":`...), int64(rec.Attempt), 10)
	buf = appendJSONString(append(buf, `,"event":`...), rec.Event)
	if rec.Class != "" {
		buf = appendJSONString(append(buf, `,"class":`...), string(rec.Class))
	}
	buf = append(buf, `,"time":`...)
	if _, off := rec.Time.Zone(); rec.Time.Year() >= 0 && rec.Time.Year() <= 9999 && off > -24*3600 && off < 24*3600 {
		buf = append(rec.Time.AppendFormat(append(buf, '"'), time.RFC3339Nano), '"')
	} else {
		quoted, err := json.Marshal(rec.Time) // refuses what RFC 3339 cannot say
		if err != nil {
			return buf, err
		}
		buf = append(buf, quoted...)
	}
	if rec.Err != "" {
		buf = appendJSONString(append(buf, `,"err":`...), rec.Err)
	}
	if rec.Worker != "" {
		buf = appendJSONString(append(buf, `,"worker":`...), rec.Worker)
	}
	if rec.Epoch != 0 {
		buf = strconv.AppendInt(append(buf, `,"epoch":`...), rec.Epoch, 10)
	}
	return append(buf, "}\n"...), nil
}

// appendJSONString appends s as a JSON string. Bytes json.Marshal passes
// through unescaped are copied; a string holding any other byte (a control
// character, non-ASCII, a quote, a backslash, or the <, >, & it escapes for
// HTML) takes the general encoder.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(buf, quoted...)
		}
	}
	return append(append(append(buf, '"'), s...), '"')
}

// SetAutoSync arms the batched-fsync policy: an Append fsyncs inline once n
// records have been written since the last fsync (every n-th, appended one
// at a time). n <= 0 disables (explicit Sync/Close only — the default).
func (j *Journal) SetAutoSync(n int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.autoSync = n
	j.mu.Unlock()
}

// Fence permanently stops writes to this handle (reads and Replay are
// unaffected — they go through the path). The file stays intact for the
// successor; this handle's Append returns ErrJournalFenced from now on.
func (j *Journal) Fence() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.fenced = true
	j.syncLocked()
	j.mu.Unlock()
}

// Sync flushes the journal to stable storage.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenEpoch fences a new coordinator incarnation into the journal: it
// replays the file's current highest epoch, appends an epoch-opened record
// for that value + 1 (naming holder), fsyncs it, and returns the new epoch.
// The record is durable before the function returns — a successor racing us
// is guaranteed to open at a strictly higher epoch.
func (j *Journal) OpenEpoch(holder string) (int64, error) {
	if j == nil {
		return 0, nil
	}
	recs, err := ReadJournalFile(j.Path())
	if err != nil {
		return 0, err
	}
	epoch := Replay(recs).Epoch + 1
	if err := j.Append(AttemptRecord{
		Run: EpochRunID, Event: EpochOpened, Epoch: epoch,
		Worker: holder, Time: time.Now(),
	}); err != nil {
		return 0, err
	}
	if err := j.Sync(); err != nil {
		return 0, err
	}
	return epoch, nil
}

// DecodeJournal parses an attempt journal. A final line without its
// newline is the torn write of a process killed mid-append and is skipped,
// whether or not it parses. Blank lines are skipped too. Any other line that
// does not parse, or names no run, is an error: the journal before it is real
// history that silent truncation would rewrite.
func DecodeJournal(data []byte) ([]AttemptRecord, error) {
	return decodeJournal(bytes.NewReader(data))
}

// ReadJournalFile loads and decodes a journal; a missing file is an empty
// journal, not an error (first execution has nothing to resume).
func ReadJournalFile(path string) ([]AttemptRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeJournal(f)
}

func decodeJournal(r io.Reader) ([]AttemptRecord, error) {
	var out []AttemptRecord
	_, err := appendlog.Replay(r, func(line []byte) error {
		if len(bytes.TrimSpace(line)) == 0 {
			return nil
		}
		var rec AttemptRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Run == "" {
			return errors.New("record missing run id")
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resilience: journal %w", err)
	}
	return out, nil
}

// ResumeState is the campaign position reconstructed from an attempt
// journal: which runs are finished, which were mid-flight at the crash,
// which failed their last attempt, and which sweep points are quarantined.
type ResumeState struct {
	// Attempts is the highest attempt number journaled per run.
	Attempts map[string]int
	// Done holds runs whose last event is terminal success (success/cached).
	Done map[string]bool
	// Failed holds runs whose last event is failure or quarantined.
	Failed map[string]bool
	// InFlight holds runs whose last event is a start — they were executing
	// when the process died and must be re-run.
	InFlight map[string]bool
	// QuarantinedPoints holds side-lined sweep-point keys.
	QuarantinedPoints map[string]bool
	// Epoch is the highest coordinator epoch journaled (0 when the journal
	// predates failover). A resuming coordinator opens at Epoch+1.
	Epoch int64
}

// Replay folds journal records (oldest first) into a ResumeState.
func Replay(recs []AttemptRecord) *ResumeState {
	s := &ResumeState{
		Attempts:          map[string]int{},
		Done:              map[string]bool{},
		Failed:            map[string]bool{},
		InFlight:          map[string]bool{},
		QuarantinedPoints: map[string]bool{},
	}
	for _, r := range recs {
		if r.Attempt > s.Attempts[r.Run] {
			s.Attempts[r.Run] = r.Attempt
		}
		delete(s.Done, r.Run)
		delete(s.Failed, r.Run)
		delete(s.InFlight, r.Run)
		switch r.Event {
		case AttemptStart:
			s.InFlight[r.Run] = true
		case AttemptSuccess, AttemptCached:
			s.Done[r.Run] = true
		case AttemptFailure, AttemptQuarantined:
			s.Failed[r.Run] = true
			if r.Event == AttemptQuarantined && r.Point != "" {
				s.QuarantinedPoints[r.Point] = true
			}
		case AttemptDispatched, AttemptLost, AttemptStolen:
			// Dispatched-but-unfinished, lease-reclaimed, and stolen-but-not-
			// redispatched runs are owed: resume re-dispatches them. (Lease
			// records under "worker/<name>" pseudo ids land here too and stay
			// pending — Remaining filters on real run ids, so they never
			// resurface as work.)
		case EpochOpened:
			if r.Epoch > s.Epoch {
				s.Epoch = r.Epoch
			}
		}
		// AttemptKilled and AttemptSkipped leave the run pending: both
		// requeue on resume.
	}
	return s
}

// Remaining filters runIDs to those not finished — the resume set, in the
// original order. Quarantined runs are still listed: whether to retry them
// is the engine's call (Quarantine.Restore carries the decision forward).
func (s *ResumeState) Remaining(runIDs []string) []string {
	var out []string
	for _, id := range runIDs {
		if s.Done[id] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// QuarantinedList returns the quarantined point keys, sorted.
func (s *ResumeState) QuarantinedList() []string {
	keys := make([]string, 0, len(s.QuarantinedPoints))
	for k := range s.QuarantinedPoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

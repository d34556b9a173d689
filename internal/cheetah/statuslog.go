package cheetah

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fairflow/internal/appendlog"
)

// statusLogName is the campaign directory's status log: one JSON line
// {"run","status"} per transition, append-only, last line per run wins.
const statusLogName = "status.log"

// StatusLine is one line of the status log: a run and the status it moved
// to.
type StatusLine struct {
	Run    string    `json:"run"`
	Status RunStatus `json:"status"`
}

// valid reports whether s is one of the four statuses of the directory
// schema.
func (s RunStatus) valid() bool {
	switch s {
	case RunPending, RunRunning, RunSucceeded, RunFailed:
		return true
	}
	return false
}

// decodeStatusLine parses and validates one complete line of the status log.
func decodeStatusLine(line []byte) (StatusLine, error) {
	var rec StatusLine
	if err := json.Unmarshal(line, &rec); err != nil {
		return rec, err
	}
	if rec.Run == "" {
		return rec, fmt.Errorf("record names no run")
	}
	if !rec.Status.valid() {
		return rec, fmt.Errorf("unknown status %q", rec.Status)
	}
	return rec, nil
}

// appendStatusLine appends rec's line, newline included, to buf. Run IDs are
// path-like ASCII, which JSON passes through unescaped; anything else takes
// the general encoder.
func appendStatusLine(buf []byte, runID string, status RunStatus) []byte {
	buf = append(buf, `{"run":`...)
	plain := true
	for i := 0; i < len(runID); i++ {
		if c := runID[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			plain = false
			break
		}
	}
	if plain {
		buf = append(buf, '"')
		buf = append(buf, runID...)
		buf = append(buf, '"')
	} else {
		quoted, _ := json.Marshal(runID) // a string always marshals
		buf = append(buf, quoted...)
	}
	buf = append(buf, `,"status":"`...)
	buf = append(buf, status...) // a valid status needs no escaping
	return append(buf, "\"}\n"...)
}

// StatusLog is an engine's handle on a campaign directory's status log, held
// for the length of a campaign. Set appends its lines with one write(2): when
// it returns nil the transitions are in the page cache, so they survive the
// death of this process — kill -9 included — with no Close. They are not yet
// power-loss durable; Close fsyncs once, at campaign end (the directory entry
// was fsynced when the log was created). In between, the attempt journal
// under its own sync policy is the durable record, and the engines' recorder
// writes its lines first: a status lost with the tail of this log only ever
// makes a finished run look unfinished, never the reverse.
//
// Set and Close are safe for concurrent use, and several handles — a
// successor coordinator, a resumed engine, a SetRunStatus — may append to one
// log: O_APPEND keeps their lines whole.
type StatusLog struct {
	mu  sync.Mutex
	f   *appendlog.Log
	buf []byte // one Set's lines, reused across Sets
}

// OpenStatusLog opens dir's status log for appending, creating it if needed.
// A torn last line — a writer died mid-append — is cut away so this handle's
// first record lands on a clean line.
func OpenStatusLog(dir string) (*StatusLog, error) {
	f, err := appendlog.OpenLog(filepath.Join(dir, statusLogName))
	if err != nil {
		return nil, fmt.Errorf("cheetah: opening %s: %w", statusLogName, err)
	}
	return &StatusLog{f: f}, nil
}

// Set records, in order, that each line's run is now in its status. One
// invalid line refuses them all.
func (l *StatusLog) Set(lines ...StatusLine) error {
	for _, ln := range lines {
		if ln.Run == "" || !ln.Status.valid() {
			return fmt.Errorf("cheetah: %s: refusing record {run %q, status %q}", statusLogName, ln.Run, ln.Status)
		}
	}
	if len(lines) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = l.buf[:0]
	for _, ln := range lines {
		l.buf = appendStatusLine(l.buf, ln.Run, ln.Status)
	}
	if err := l.f.Append(l.buf); err != nil {
		return fmt.Errorf("cheetah: appending to %s: %w", statusLogName, err)
	}
	return nil
}

// Close fsyncs the log, then releases the handle: after it returns nil every
// status this handle set is durable.
func (l *StatusLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("cheetah: closing %s: %w", statusLogName, err)
	}
	return nil
}

// SetRunStatus records one run's status in the directory schema: open the
// status log, Set, release. Like Set it survives the death of the process but
// is not fsynced — an engine holds a StatusLog and fsyncs once per campaign.
func SetRunStatus(dir string, runID string, status RunStatus) error {
	if _, err := os.Stat(filepath.Join(dir, runID)); err != nil {
		return fmt.Errorf("cheetah: unknown run %q: %w", runID, err)
	}
	l, err := OpenStatusLog(dir)
	if err != nil {
		return err
	}
	err = l.Set(StatusLine{runID, status})
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// RunStatuses returns the status of every run of the manifest in dir, by run
// ID: the manifest overlaid with the status log, last line wins. A run the
// log does not mention is pending. An unterminated last line is a torn write and ignored; a terminated line
// that fails validation is corruption and an error; a line naming a run the
// manifest does not list is ignored.
func RunStatuses(dir string) (map[string]RunStatus, error) {
	m, err := LoadCampaignDir(dir)
	if err != nil {
		return nil, err
	}
	return m.runStatuses(dir)
}

func (m *Manifest) runStatuses(dir string) (map[string]RunStatus, error) {
	statuses := make(map[string]RunStatus, len(m.Runs))
	for _, run := range m.Runs {
		statuses[run.ID] = RunPending // listed, no log line seen yet
	}
	f, err := os.Open(filepath.Join(dir, statusLogName))
	if err == nil {
		_, err = appendlog.Replay(f, func(line []byte) error {
			rec, err := decodeStatusLine(line)
			if err != nil {
				return err
			}
			if _, listed := statuses[rec.Run]; listed {
				statuses[rec.Run] = rec.Status
			}
			return nil
		})
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("cheetah: %s: %w", statusLogName, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return statuses, nil
}

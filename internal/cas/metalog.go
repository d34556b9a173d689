package cas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fairflow/internal/appendlog"
)

// metaLog is the append-only tail of a metadata file: entries added since
// the snapshot at <path> was last written live as one JSON line each in
// <path>.log. An append costs one small write and one fsync however large
// the store has grown; the snapshot is rewritten only at the owner's
// compaction point (see compacted). A metaLog is not safe for concurrent
// use — the owning ActionCache calls it under its own mutex.
//
// Several handles may append to one log (O_APPEND keeps their lines whole),
// but compaction is for a single handle with no other appender alive: a
// compactor snapshots only what it holds in memory and unlinks the file the
// others are still writing to.
type metaLog struct {
	path string // the log file, <snapshot path>.log

	f   *appendlog.Log // opened by the first append, closed by compacted
	buf bytes.Buffer   // one record's encoding, reused across appends
	enc *json.Encoder  // writes into buf

	// n counts the records in the tail — replayed at open plus appended
	// since — so owners know whether a compaction has anything to fold in.
	n int
}

func newMetaLog(snapshotPath string) *metaLog {
	l := &metaLog{path: snapshotPath + ".log"}
	l.enc = json.NewEncoder(&l.buf)
	return l
}

// replay feeds every complete record of the log file to apply, in order. An
// absent log is an empty one.
func (l *metaLog) replay(apply func(line []byte) error) error {
	f, err := os.Open(l.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := appendlog.Replay(f, apply)
	l.n += n
	if err != nil {
		return fmt.Errorf("cas: %s: %w", filepath.Base(l.path), err)
	}
	return nil
}

// append writes rec as one line and fsyncs it: when append returns nil the
// record survives a crash with no Close ever called. The log is opened by
// the first append — a new file's directory fsynced, an existing one's torn
// tail cut as it is now, not as replay saw it, so another handle's appends
// since then are never cut — and a failed open is tried again by the next.
func (l *metaLog) append(rec any) error {
	if l.f == nil {
		f, err := appendlog.OpenLog(l.path)
		if err != nil {
			return fmt.Errorf("cas: opening %s: %w", filepath.Base(l.path), err)
		}
		l.f = f
	}
	l.buf.Reset()
	err := l.enc.Encode(rec) // Encode terminates the record with '\n'
	if err == nil {
		err = l.f.Append(l.buf.Bytes())
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("cas: appending to %s: %w", filepath.Base(l.path), err)
	}
	l.n++
	return nil
}

// compacted drops the tail after the owner has written a snapshot holding
// everything in it. Snapshot first, then this: entries are idempotent, so a
// crash between the two only replays what the snapshot already has.
func (l *metaLog) compacted() error {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	if err := os.Remove(l.path); err != nil && !os.IsNotExist(err) {
		return err
	}
	l.n = 0
	return nil
}

package cas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fairflow/internal/appendlog"
)

// metaLog is the append-only tail of a metadata file: entries added since
// the snapshot at <path> was last written live as one JSON line each in
// <path>.log. An append costs one small write and one fsync however large
// the store has grown; the snapshot is rewritten only at the owner's
// compaction points (see compacted). A metaLog is not safe for concurrent
// use — the owning Store or ActionCache calls it under its own mutex.
//
// Several handles may append to one log (O_APPEND keeps their lines whole),
// but compaction is for a single handle with no other appender alive: a
// compactor snapshots only what it holds in memory and unlinks the file the
// others are still writing to.
type metaLog struct {
	path string // the log file, <snapshot path>.log

	f   *os.File      // opened by the first append, closed by compacted
	buf bytes.Buffer  // one record's encoding, reused across appends
	enc *json.Encoder // writes into buf

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
	n, err := replayLog(f, apply)
	l.n += n
	if err != nil {
		return fmt.Errorf("cas: %s: %w", filepath.Base(l.path), err)
	}
	return nil
}

// replayLog is appendlog.Replay — the torn-tail rules the campaign status
// log shares — under the name FuzzCASLogReplay pins it by.
func replayLog(r io.Reader, apply func(line []byte) error) (int, error) {
	return appendlog.Replay(r, apply)
}

// append writes rec as one line and fsyncs it: when append returns nil the
// record survives a crash with no Close ever called. On any failure the
// handle is dropped, so the next append reopens the file and trims whatever
// partial line this one may have left.
func (l *metaLog) append(rec any) error {
	if l.f == nil {
		if err := l.open(); err != nil {
			return err
		}
	}
	l.buf.Reset()
	err := l.enc.Encode(rec) // Encode terminates the record with '\n'
	if err == nil {
		_, err = l.f.Write(l.buf.Bytes())
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.f.Close()
		l.f = nil
		return fmt.Errorf("cas: appending to %s: %w", filepath.Base(l.path), err)
	}
	l.n++
	return nil
}

// open opens the log for appending, creating it if needed. A new log's
// directory entry is fsynced so the file itself survives power loss; an
// existing log's torn tail is cut back to the last line boundary so this
// handle's first record lands on a clean line. The trim looks at the file as
// it is now, not as replay saw it, so another handle's appends since then
// are never cut.
func (l *metaLog) open() error {
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil {
		if fi.Size() == 0 {
			err = appendlog.SyncDir(filepath.Dir(l.path))
		} else {
			err = appendlog.TrimTornTail(f, fi.Size())
		}
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("cas: opening %s: %w", filepath.Base(l.path), err)
	}
	l.f = f
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

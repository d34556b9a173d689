// Package appendlog holds the one append-only log every durable JSONL file in
// this repository is written through — the attempt journal
// (internal/resilience), the campaign status log (internal/cheetah) and the
// CAS action log (internal/cas) — and the torn-tail rules they are read
// by. A record is one line; it exists once its newline does. A process killed
// mid-append leaves at most an unterminated last line, which readers skip
// (Replay) and the next Log cuts away so its own first record lands on a
// clean line.
//
// Beside the log sit the durable-write helpers the same packages share
// (file.go): bare-descriptor files and directories, SyncDir, Link,
// WriteFileAtomic, and the one failpoint hook through which tests observe
// and fail their opens, writes, fsyncs and links.
package appendlog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Replay feeds every complete record of r to apply, in order, without its
// newline, and returns the number applied. A record is complete when its
// newline is there: an unterminated final line is the torn write of a process
// that died mid-append and is ignored, while a terminated line apply rejects
// is corruption and an error — the records before it are real and silently
// dropping what follows would lose appends that returned.
func Replay(r io.Reader, apply func(line []byte) error) (int, error) {
	br := bufio.NewReaderSize(r, 32<<10)
	n := 0
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return n, nil // whatever ReadBytes holds has no newline: torn, or nothing
		}
		if err != nil {
			return n, err
		}
		if err := apply(line[:len(line)-1]); err != nil {
			return n, fmt.Errorf("line %d: %w", n+1, err)
		}
		n++
	}
}

// Log is an append-only file of newline-terminated records. Its owner decides
// when to fsync; Log decides how the file is opened, repaired and appended
// to. Several Logs, in one process or several, may append to one file:
// O_APPEND keeps their records whole. A Log is not safe for concurrent use.
type Log struct {
	f *File
	// torn is set when a write failed and may have left part of a record;
	// the next Append cuts the file back to its last newline first, so the
	// fragment cannot fuse with a good record into a terminated malformed
	// line, which a reader rejects.
	torn   bool
	closed bool
}

// OpenLog opens path for appending, creating it if needed. An empty file —
// just created, or left so by an open that died before this step — has its
// directory fsynced, so the file survives a power loss with whatever is
// appended to it; a non-empty file has its torn tail cut, so this Log's first
// record lands on a clean line.
func OpenLog(path string) (*Log, error) {
	f, err := Open(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.size()
	if err == nil {
		if size == 0 {
			err = SyncDir(filepath.Dir(path))
		} else {
			err = trimTornTail(f, size)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append writes p — whole records, each ending in a newline — with one
// write(2). When it returns nil the records survive the death of the process;
// they survive a power loss once Sync returns.
func (l *Log) Append(p []byte) error {
	if l.closed {
		return &fs.PathError{Op: "write", Path: l.f.name, Err: fs.ErrClosed}
	}
	if l.torn {
		size, err := l.f.size()
		if err == nil {
			err = trimTornTail(l.f, size)
		}
		if err != nil {
			return err
		}
		l.torn = false
	}
	if _, err := l.f.Write(p); err != nil {
		l.torn = true
		return err
	}
	return nil
}

// Sync fsyncs the file.
func (l *Log) Sync() error {
	if l.closed {
		return &fs.PathError{Op: "sync", Path: l.f.name, Err: fs.ErrClosed}
	}
	return l.f.Sync()
}

// Close releases the file without fsyncing it. Every call after the first
// fails, and so do Append and Sync: the descriptor number may already name
// another file.
func (l *Log) Close() error {
	if l.closed {
		return &fs.PathError{Op: "close", Path: l.f.name, Err: fs.ErrClosed}
	}
	l.closed = true
	return l.f.Close()
}

// trimTornTail truncates f (size bytes long) to just after its last newline.
// It looks at the file as it is now, so records other handles appended since
// the caller last read it are never cut.
func trimTornTail(f *File, size int64) error {
	var buf [4096]byte
	for end := size; end > 0; {
		start := max(end-int64(len(buf)), 0)
		chunk := buf[:end-start]
		if err := f.readAt(chunk, start); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			if keep := start + int64(i) + 1; keep < size {
				return f.truncate(keep)
			}
			return nil
		}
		end = start
	}
	return f.truncate(0)
}

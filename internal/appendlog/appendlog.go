// Package appendlog holds the torn-tail rules every append-only JSONL file in
// this repository reads by — the CAS metadata logs (internal/cas) and the
// campaign status log (internal/cheetah). A record is one line; it exists
// once its newline does. A process killed mid-append leaves at most an
// unterminated last line, which readers skip (Replay) and the next appender
// cuts away (TrimTornTail) so its own first record lands on a clean line.
//
// Beside those rules sit the durable-write helpers the same packages share
// (file.go): bare-descriptor files, SyncDir, WriteFileAtomic, and the one
// failpoint hook through which tests observe and fail their opens, writes
// and fsyncs.
package appendlog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
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

// TrimTornTail truncates f (size bytes long) to just after its last newline.
// It looks at the file as it is now, so records other handles appended since
// the caller last read it are never cut.
func TrimTornTail(f *os.File, size int64) error {
	var buf [4096]byte
	for end := size; end > 0; {
		start := end - int64(len(buf))
		if start < 0 {
			start = 0
		}
		chunk := buf[:end-start]
		if _, err := f.ReadAt(chunk, start); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			if keep := start + int64(i) + 1; keep < size {
				return f.Truncate(keep)
			}
			return nil
		}
		end = start
	}
	return f.Truncate(0)
}

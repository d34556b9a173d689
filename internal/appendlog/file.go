package appendlog

import (
	"errors"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// The durable-write helpers below are what the campaign directory
// (internal/cheetah), the artifact store (internal/cas), the resilience
// layer's state files and every Log share: files opened through a bare
// descriptor, one SyncDir and one WriteFileAtomic. On unix a File is a bare
// fd — open, read, write, fsync and close are one system call each, with none
// of the runtime poller's registration (two fcntl calls and an epoll_ctl that
// Linux refuses for a regular file, then two more fcntl calls) that
// os.OpenFile pays per open. Elsewhere it is an *os.File.

// Op names a step the failpoint hook sees.
type Op string

// The steps the failpoint hook sees.
const (
	OpOpen  Op = "open"
	OpWrite Op = "write"
	OpSync  Op = "sync"
)

// Failpoint, when non-nil, is called before every open, write and fsync made
// through this package, with the path involved; an error it returns fails
// that step in place of the system call, as a *fs.PathError naming the path.
// It is the one seam tests observe, order and fail durable writes through.
// Set it before the code under test starts and reset it after: it is read
// without synchronisation.
var Failpoint func(op Op, path string) error

func failpoint(op Op, path string) error {
	if Failpoint == nil {
		return nil
	}
	if err := Failpoint(op, path); err != nil {
		return &fs.PathError{Op: string(op), Path: path, Err: err}
	}
	return nil
}

// File is a file opened through a bare descriptor. It is not safe for
// concurrent use.
type File struct {
	fd   fd
	name string
}

// Open opens name with flag (os.O_* values) and perm, as os.OpenFile does,
// through a bare descriptor that is closed on exec.
func Open(name string, flag int, perm os.FileMode) (*File, error) {
	if err := failpoint(OpOpen, name); err != nil {
		return nil, err
	}
	d, err := openFD(name, flag, perm)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	return &File{fd: d, name: name}, nil
}

// Name returns the name the file was opened with.
func (f *File) Name() string { return f.name }

// Read reads up to len(p) bytes; it returns io.EOF at the end of the file.
func (f *File) Read(p []byte) (int, error) {
	n, err := readFD(f.fd, p)
	switch {
	case err != nil:
		return n, &fs.PathError{Op: "read", Path: f.name, Err: err}
	case n == 0 && len(p) > 0:
		return 0, io.EOF
	}
	return n, nil
}

// readAt fills p from offset off; the end of the file before p is full is
// io.ErrUnexpectedEOF.
func (f *File) readAt(p []byte, off int64) error {
	for len(p) > 0 {
		n, err := preadFD(f.fd, p, off)
		if err == nil && n == 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return &fs.PathError{Op: "read", Path: f.name, Err: err}
		}
		p, off = p[n:], off+int64(n)
	}
	return nil
}

// truncate cuts the file to size bytes.
func (f *File) truncate(size int64) error {
	if err := truncateFD(f.fd, size); err != nil {
		return &fs.PathError{Op: "truncate", Path: f.name, Err: err}
	}
	return nil
}

// size returns the file's length as it is now.
func (f *File) size() (int64, error) {
	n, err := sizeFD(f.fd)
	if err != nil {
		return 0, &fs.PathError{Op: "stat", Path: f.name, Err: err}
	}
	return n, nil
}

// Write writes all of p or returns an error.
func (f *File) Write(p []byte) (int, error) {
	if err := failpoint(OpWrite, f.name); err != nil {
		return 0, err
	}
	var n int
	for n < len(p) {
		m, err := writeFD(f.fd, p[n:])
		n += m
		if err != nil {
			return n, &fs.PathError{Op: "write", Path: f.name, Err: err}
		}
		if m == 0 {
			return n, &fs.PathError{Op: "write", Path: f.name, Err: io.ErrShortWrite}
		}
	}
	return n, nil
}

// Sync fsyncs the file.
func (f *File) Sync() error {
	if err := failpoint(OpSync, f.name); err != nil {
		return err
	}
	if err := syncFD(f.fd); err != nil {
		return &fs.PathError{Op: "sync", Path: f.name, Err: err}
	}
	return nil
}

// Close releases the descriptor.
func (f *File) Close() error {
	if err := closeFD(f.fd); err != nil {
		return &fs.PathError{Op: "close", Path: f.name, Err: err}
	}
	return nil
}

// WriteFile writes data to name through a bare descriptor — open, write,
// close, and no fsync: what it writes survives the death of the process, not
// a power loss. flag is added to O_WRONLY: O_CREATE|O_EXCL claims a new file,
// O_CREATE|O_TRUNC rewrites one.
func WriteFile(name string, data []byte, flag int, perm os.FileMode) error {
	f, err := Open(name, os.O_WRONLY|flag, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CreateTemp creates a new file in dir, named prefix followed by a random
// number, opened for writing with perm (which the umask narrows). The
// caller removes it or renames it into place.
func CreateTemp(dir, prefix string, perm os.FileMode) (*File, error) {
	for try := 0; ; try++ {
		name := filepath.Join(dir, prefix+strconv.FormatUint(uint64(rand.Uint32()), 10))
		f, err := Open(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
		if errors.Is(err, fs.ErrExist) && try < 10000 {
			continue
		}
		return f, err
	}
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry survives
// power loss.
func SyncDir(dir string) error {
	d, err := Open(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes data via a temp file in the target's directory and
// an atomic rename: a crash (or a concurrent reader) can never observe a torn
// or partially-written file — only the old content or the new. The temp file
// is fsynced before the rename and the parent directory after it, so the
// write is also durable across power loss. The file gets exactly mode, as
// with chmod, whatever the umask.
func WriteFileAtomic(path string, data []byte, mode os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := CreateTemp(dir, "."+filepath.Base(path)+".tmp-", 0o600)
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), mode)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr == nil {
		werr = SyncDir(dir)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

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
// descriptor, directories held open for a sequence of steps on their entries
// (Dir), one SyncDir, one Rename, one Link and one WriteFileAtomic. On unix a
// File is a bare fd — open, read, write, fsync and close are one system call
// each, with none of the runtime poller's registration (two fcntl calls and
// an epoll_ctl that Linux refuses for a regular file, then two more fcntl
// calls) that os.OpenFile pays per open. Elsewhere it is an *os.File.

// Op names a step the failpoint hook sees.
type Op string

// The steps the failpoint hook sees.
const (
	OpOpen  Op = "open"
	OpWrite Op = "write"
	OpSync  Op = "sync"
	OpLink  Op = "link"
	OpMkdir Op = "mkdir"
)

// Failpoint, when non-nil, is called before every open, write, fsync, link
// and mkdir made through this package, with the path involved (a link's new
// name); an error it returns fails that step in place of the system call,
// as a *fs.PathError naming the path.
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
	return createTemp(prefix, func(name string) (*File, error) {
		return Open(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
	})
}

// createTemp calls create with prefix followed by a random number until a
// name is free.
func createTemp(prefix string, create func(name string) (*File, error)) (*File, error) {
	for try := 0; ; try++ {
		f, err := create(prefix + strconv.FormatUint(uint64(rand.Uint32()), 10))
		if errors.Is(err, fs.ErrExist) && try < 10000 {
			continue
		}
		return f, err
	}
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry survives
// power loss.
func SyncDir(dir string) error {
	d, err := OpenDir(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir is a directory opened through a bare descriptor, for a sequence of
// steps on its entries. Its methods take names resolved in the directory, as
// the *at system calls resolve them: on Linux each step is one such call on
// the descriptor, which looks up one name where a call on a path walks every
// component of it again; elsewhere a step takes the joined path. A Dir is
// not safe for concurrent use, and holds a descriptor until it is closed.
type Dir File

// OpenDir opens the directory name.
func OpenDir(name string) (*Dir, error) {
	f, err := Open(name, os.O_RDONLY, 0)
	return (*Dir)(f), err
}

// Name returns the name the directory was opened with.
func (d *Dir) Name() string { return d.name }

// join returns the path of the entry name.
func (d *Dir) join(name string) string { return d.name + string(filepath.Separator) + name }

// CreateTemp creates a new file in the directory, as CreateTemp does in a
// named one; the file's Name is the joined path.
func (d *Dir) CreateTemp(prefix string, perm os.FileMode) (*File, error) {
	return createTemp(prefix, func(name string) (*File, error) {
		path := d.join(name)
		if err := failpoint(OpOpen, path); err != nil {
			return nil, err
		}
		f, err := d.openat(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, perm)
		if err != nil {
			return nil, &fs.PathError{Op: "open", Path: path, Err: err}
		}
		return &File{fd: f, name: path}, nil
	})
}

// Link makes newname a hard link to oldname, with one link(2); an existing
// newname is never replaced but fails with an error that is fs.ErrExist.
// Errors are *os.LinkError, as os.Link's are.
func (d *Dir) Link(oldname, newname string) error {
	if Failpoint != nil {
		if err := failpoint(OpLink, d.join(newname)); err != nil {
			return err
		}
	}
	if err := d.linkat(oldname, newname); err != nil {
		return &os.LinkError{Op: "link", Old: d.join(oldname), New: d.join(newname), Err: err}
	}
	return nil
}

// Mkdir makes the directory name with perm (which the umask narrows), with
// one mkdir(2): on Linux mkdirat on the descriptor, which looks up name alone
// where a mkdir of the joined path walks every component of it.
func (d *Dir) Mkdir(name string, perm os.FileMode) error {
	if Failpoint != nil {
		if err := failpoint(OpMkdir, d.join(name)); err != nil {
			return err
		}
	}
	if err := d.mkdirat(name, perm); err != nil {
		return &fs.PathError{Op: "mkdir", Path: d.join(name), Err: err}
	}
	return nil
}

// Remove unlinks the file name.
func (d *Dir) Remove(name string) error {
	if err := d.unlinkat(name); err != nil {
		return &fs.PathError{Op: "remove", Path: d.join(name), Err: err}
	}
	return nil
}

// Sync fsyncs the directory, so its entries made or removed so far survive
// a power loss.
func (d *Dir) Sync() error { return (*File)(d).Sync() }

// Close releases the descriptor.
func (d *Dir) Close() error { return (*File)(d).Close() }

// Link makes newpath a hard link to oldpath, with one link(2); an existing
// newpath is never replaced but fails with an error that is fs.ErrExist.
// Errors are *os.LinkError, as os.Link's are.
func Link(oldpath, newpath string) error {
	if err := failpoint(OpLink, newpath); err != nil {
		return err
	}
	if err := link(oldpath, newpath); err != nil {
		return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: err}
	}
	return nil
}

// Mkdir makes the directory name with perm (which the umask narrows), as
// os.Mkdir does; an existing name fails with an error that is fs.ErrExist.
func Mkdir(name string, perm os.FileMode) error {
	if err := failpoint(OpMkdir, name); err != nil {
		return err
	}
	return os.Mkdir(name, perm)
}

// Rename moves the file oldpath to newpath, replacing any file there, with
// one rename(2): os.Rename first Lstats newpath to refuse renaming onto a
// directory, which a file renamed through here never is. Errors are
// *os.LinkError, as os.Rename's are.
func Rename(oldpath, newpath string) error {
	if err := rename(oldpath, newpath); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return nil
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
		werr = Rename(tmp.Name(), path)
	}
	if werr == nil {
		werr = SyncDir(dir)
	}
	if werr != nil {
		os.Remove(tmp.Name())
	}
	return werr
}

//go:build !unix

package appendlog

import (
	"errors"
	"io"
	"io/fs"
	"os"
)

// fd is an *os.File where there is no bare-descriptor path.
type fd = *os.File

// bare strips the *fs.PathError os wraps every error in: File wraps it again.
func bare(err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return pe.Err
	}
	return err
}

func openFD(name string, flag int, perm os.FileMode) (fd, error) {
	f, err := os.OpenFile(name, flag, perm)
	return f, bare(err)
}

func readFD(d fd, p []byte) (int, error) {
	n, err := d.Read(p)
	if err == io.EOF {
		err = nil // File.Read maps a zero-byte read to io.EOF itself
	}
	return n, bare(err)
}

func writeFD(d fd, p []byte) (int, error) {
	n, err := d.Write(p)
	return n, bare(err)
}

// preadFD reports the end of the file as a short read, as pread does.
func preadFD(d fd, p []byte, off int64) (int, error) {
	n, err := d.ReadAt(p, off)
	if err == io.EOF {
		err = nil
	}
	return n, bare(err)
}

func truncateFD(d fd, size int64) error { return bare(d.Truncate(size)) }

func sizeFD(d fd) (int64, error) {
	fi, err := d.Stat()
	if err != nil {
		return 0, bare(err)
	}
	return fi.Size(), nil
}

func syncFD(d fd) error { return bare(d.Sync()) }

func closeFD(d fd) error { return bare(d.Close()) }

func rename(oldpath, newpath string) error {
	err := os.Rename(oldpath, newpath)
	var le *os.LinkError
	if errors.As(err, &le) {
		return le.Err
	}
	return err
}

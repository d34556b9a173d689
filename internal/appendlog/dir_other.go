//go:build !linux

package appendlog

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// Without the *at calls a Dir's steps take the joined path, cleaned so that
// a name reaching out of the directory ("../x") resolves as it would there.

func (d *Dir) openat(name string, flag int, perm os.FileMode) (fd, error) {
	return openFD(filepath.Join(d.name, name), flag, perm)
}

func (d *Dir) linkat(oldname, newname string) error {
	return link(filepath.Join(d.name, oldname), filepath.Join(d.name, newname))
}

func (d *Dir) mkdirat(name string, perm os.FileMode) error {
	return bare(os.Mkdir(filepath.Join(d.name, name), perm))
}

func (d *Dir) unlinkat(name string) error {
	return bare(os.Remove(filepath.Join(d.name, name)))
}

// bare strips the *fs.PathError os wraps every error in: File and Dir wrap
// it again.
func bare(err error) error {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		return pe.Err
	}
	return err
}

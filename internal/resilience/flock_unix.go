//go:build unix

package resilience

import (
	"os"
	"path/filepath"
	"syscall"
)

// lockClaimDir holds an exclusive flock on the directory of a lease file
// until unlock is called; the kernel drops it if the process dies first.
func lockClaimDir(path string) (unlock func() error, err error) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	for {
		if err = syscall.Flock(int(d.Fd()), syscall.LOCK_EX); err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		d.Close()
		return nil, &os.PathError{Op: "flock", Path: d.Name(), Err: err}
	}
	return d.Close, nil
}

//go:build linux

package appendlog

import (
	"os"
	"syscall"
	"unsafe"
)

// On Linux a Dir's steps are *at system calls on its descriptor.

func (d *Dir) openat(name string, flag int, perm os.FileMode) (fd, error) {
	for {
		f, err := syscall.Openat(d.fd, name, flag|syscall.O_CLOEXEC, uint32(perm.Perm()))
		if err != syscall.EINTR {
			return f, err
		}
	}
}

// linkat is linkat(2) with both names in d; the syscall package has no
// wrapper for it.
func (d *Dir) linkat(oldname, newname string) error {
	oldp, err := syscall.BytePtrFromString(oldname)
	if err != nil {
		return err
	}
	newp, err := syscall.BytePtrFromString(newname)
	if err != nil {
		return err
	}
	for {
		_, _, e := syscall.Syscall6(syscall.SYS_LINKAT, uintptr(d.fd), uintptr(unsafe.Pointer(oldp)),
			uintptr(d.fd), uintptr(unsafe.Pointer(newp)), 0, 0)
		switch e {
		case 0:
			return nil
		case syscall.EINTR:
			continue
		}
		return e
	}
}

func (d *Dir) mkdirat(name string, perm os.FileMode) error {
	for {
		if err := syscall.Mkdirat(d.fd, name, uint32(perm.Perm())); err != syscall.EINTR {
			return err
		}
	}
}

func (d *Dir) unlinkat(name string) error {
	for {
		if err := syscall.Unlinkat(d.fd, name); err != syscall.EINTR {
			return err
		}
	}
}

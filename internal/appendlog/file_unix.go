//go:build unix

package appendlog

import (
	"os"
	"syscall"
)

// fd is a bare file descriptor: never registered with the runtime poller,
// which has nothing to offer a regular file or a directory.
type fd = int

// On unix the os.O_* flags are the syscall ones.
func openFD(name string, flag int, perm os.FileMode) (fd, error) {
	for {
		d, err := syscall.Open(name, flag|syscall.O_CLOEXEC, uint32(perm.Perm()))
		if err != syscall.EINTR {
			return d, err
		}
	}
}

func readFD(d fd, p []byte) (int, error) {
	for {
		n, err := syscall.Read(d, p)
		if err != syscall.EINTR {
			return max(n, 0), err
		}
	}
}

func writeFD(d fd, p []byte) (int, error) {
	for {
		n, err := syscall.Write(d, p)
		if err != syscall.EINTR {
			return max(n, 0), err
		}
	}
}

func preadFD(d fd, p []byte, off int64) (int, error) {
	for {
		n, err := syscall.Pread(d, p, off)
		if err != syscall.EINTR {
			return max(n, 0), err
		}
	}
}

func truncateFD(d fd, size int64) error {
	for {
		if err := syscall.Ftruncate(d, size); err != syscall.EINTR {
			return err
		}
	}
}

func sizeFD(d fd) (int64, error) {
	var st syscall.Stat_t
	for {
		if err := syscall.Fstat(d, &st); err != syscall.EINTR {
			return st.Size, err
		}
	}
}

func syncFD(d fd) error {
	for {
		if err := syscall.Fsync(d); err != syscall.EINTR {
			return err
		}
	}
}

// closeFD does not retry on EINTR: on Linux the descriptor is gone either way.
func closeFD(d fd) error { return syscall.Close(d) }

func rename(oldpath, newpath string) error {
	for {
		if err := syscall.Rename(oldpath, newpath); err != syscall.EINTR {
			return err
		}
	}
}

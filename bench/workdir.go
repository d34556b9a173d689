package bench

import (
	"fmt"
	"os"
)

// workDir is the benchmark's scratch space: a unique child of a root it did
// not create. Only that child is ever removed.
type workDir struct {
	child string
	fs    string
}

// newWorkDir creates the unique child. A user-supplied root must be empty
// (it is created when missing) and is itself never removed; without one the
// root is /dev/shm, then os.TempDir(), then the current directory. tmpfs
// comes first because campaigns fsync four times a run: on this sandbox's
// ext4 that alone spreads runs/s by ±20%, which no bound can absorb
// (README.md, "Work directory").
func newWorkDir(user string) (*workDir, error) {
	roots := []string{"/dev/shm", os.TempDir(), "."}
	if user != "" {
		if err := os.MkdirAll(user, 0o755); err != nil {
			return nil, err
		}
		entries, err := os.ReadDir(user)
		if err != nil {
			return nil, err
		}
		if len(entries) > 0 {
			return nil, fmt.Errorf("-workdir %s is not empty", user)
		}
		roots = []string{user}
	}
	var firstErr error
	for _, root := range roots {
		child, err := os.MkdirTemp(root, "campaignbench-*")
		if err == nil {
			return &workDir{child: child, fs: fsType(child)}, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("no usable work directory: %w", firstErr)
}

// sub creates a fresh directory under the child.
func (w *workDir) sub(pattern string) (string, error) {
	return os.MkdirTemp(w.child, pattern)
}

// remove deletes the child — on success, failure and interrupt alike.
func (w *workDir) remove() { os.RemoveAll(w.child) }

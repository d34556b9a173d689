package appendlog

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestReplaySkipsOnlyAnUnterminatedTail(t *testing.T) {
	var got []string
	n, err := Replay(strings.NewReader("a\nbb\n\nccc"), func(line []byte) error {
		got = append(got, string(line))
		return nil
	})
	if err != nil || n != 3 || strings.Join(got, "|") != "a|bb|" {
		t.Fatalf("Replay applied %d records %q, err %v", n, got, err)
	}
	bad := errors.New("bad")
	n, err = Replay(strings.NewReader("a\nbb\nccc\n"), func(line []byte) error {
		if string(line) == "bb" {
			return bad
		}
		return nil
	})
	if n != 1 || !errors.Is(err, bad) || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("rejected line: applied %d, err %v", n, err)
	}
}

// TestTrimTornTail covers tails shorter and longer than the 4 KiB the trim
// reads at a time, a file that is all tail, and one with nothing to trim.
func TestTrimTornTail(t *testing.T) {
	for name, c := range map[string]struct{ in, want string }{
		"clean":       {"a\nb\n", "a\nb\n"},
		"short tail":  {"a\nb\nhalf", "a\nb\n"},
		"long tail":   {"a\nb\n" + strings.Repeat("x", 10000), "a\nb\n"},
		"long record": {strings.Repeat("y", 9000) + "\ntorn", strings.Repeat("y", 9000) + "\n"},
		"all tail":    {strings.Repeat("z", 5000), ""},
		"empty":       {"", ""},
	} {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, []byte(c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := trimTornTail(f, int64(len(c.in))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, []byte(c.want)) {
			t.Errorf("%s: %d bytes left, want %d", name, len(got), len(c.want))
		}
	}
}

// recordOps routes the failpoint hook through a recorder until the test ends
// and returns the "op base" steps seen so far, in order. refuse, when it
// returns an error for a step, fails that step.
func recordOps(t *testing.T, refuse func(op Op, path string) error) func() []string {
	var seen []string
	Failpoint = func(op Op, path string) error {
		seen = append(seen, string(op)+" "+filepath.Base(path))
		if refuse != nil {
			return refuse(op, path)
		}
		return nil
	}
	t.Cleanup(func() { Failpoint = nil })
	return func() []string { return append([]string(nil), seen...) }
}

// TestLogCreateFsyncsDirectory: creating a log fsyncs its directory once;
// reopening a log that holds records does not, and nothing is written or
// fsynced until the owner asks.
func TestLogCreateFsyncsDirectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "attempts.jsonl")
	seen := recordOps(t, nil)
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(dir)
	if got, want := strings.Join(seen(), "|"), "open attempts.jsonl|open "+base+"|sync "+base; got != want {
		t.Fatalf("creating a log: hook saw %q, want %q", got, want)
	}
	if err := l.Append([]byte("a\n")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := len(seen())
	if l, err = OpenLog(path); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := seen()[n:]; strings.Join(got, "|") != "open attempts.jsonl" {
		t.Fatalf("reopening a log: hook saw %q, want the open alone", got)
	}
	if data, _ := os.ReadFile(path); string(data) != "a\n" {
		t.Fatalf("log holds %q", data)
	}
}

// TestLogTrimsTornTail: OpenLog cuts an unterminated last line, and a write
// that fails part-way — here another handle lands half a batch, then the
// write reports ENOSPC — is cut back to its last newline before the next
// Append, so every record in the file stays whole.
func TestLogTrimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "status.log")
	if err := os.WriteFile(path, []byte("a\nhal"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("b\n")); err != nil {
		t.Fatal(err)
	}
	batch := []byte("c\nd\n")
	recordOps(t, func(op Op, path string) error {
		if op != OpWrite {
			return nil
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		f.Write(batch[:3]) // c, and part of d
		f.Close()
		return syscall.ENOSPC
	})
	if err := l.Append(batch); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn append returned %v", err)
	}
	Failpoint = nil
	if data, _ := os.ReadFile(path); string(data) != "a\nb\nc\nd" {
		t.Fatalf("after the torn append the log holds %q", data)
	}
	if err := l.Append([]byte("e\n")); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "a\nb\nc\ne\n" {
		t.Fatalf("after the next append the log holds %q, want the fragment cut and e on a clean line", data)
	}
}

// TestLogClosed: a closed log refuses every further call rather than use a
// descriptor number that may since name another file.
func TestLogClosed(t *testing.T) {
	l, err := OpenLog(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{"Append": l.Append([]byte("x\n")), "Sync": l.Sync(), "Close": l.Close()} {
		if !errors.Is(err, fs.ErrClosed) {
			t.Errorf("%s after Close: %v", name, err)
		}
	}
}

// TestWriteFileAtomicDurableRoundTrip overwrites one file repeatedly through
// the durable write path (temp fsync + rename + parent-directory fsync) and
// re-reads it each time: the content and mode must round-trip exactly and no
// temp file may survive.
func TestWriteFileAtomicDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.json")
	for i, content := range []string{"first", "second, longer content", ""} {
		if err := WriteFileAtomic(path, []byte(content), 0o600); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(got) != content {
			t.Fatalf("round-trip %d: got %q, want %q", i, got, content)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Mode().Perm() != 0o600 {
			t.Fatalf("round-trip %d: mode = %v, want 0600", i, fi.Mode().Perm())
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the target", len(entries))
	}
}

// TestWriteFileAndRead: an exclusive create refuses an existing file, a
// truncating one replaces its content, and a bare-descriptor read returns the
// bytes and then io.EOF.
func TestWriteFileAndRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "params.json")
	if err := WriteFile(path, []byte("first, longer"), os.O_CREATE|os.O_EXCL, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("again"), os.O_CREATE|os.O_EXCL, 0o644); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("exclusive create over an existing file: %v", err)
	}
	if err := WriteFile(path, []byte("second"), os.O_CREATE|os.O_TRUNC, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || string(got) != "second" {
		t.Fatalf("read back %q, %v", got, err)
	}
	if n, err := f.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read at the end: %d, %v", n, err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "absent"), os.O_RDONLY, 0); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open of a missing file: %v", err)
	}
}

// TestFailpoint: the hook sees every open, write and fsync with its path, in
// order, and an error it returns fails that step as a *fs.PathError naming
// the path, before the system call is made.
func TestFailpoint(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "f")
	refuse := map[Op]bool{}
	errFull := errors.New("no space left")
	seen := recordOps(t, func(op Op, _ string) error {
		if refuse[op] {
			return errFull
		}
		return nil
	})

	if err := WriteFileAtomic(target, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := seen()
	tmp := strings.TrimPrefix(got[0], "open ")
	want := []string{"open " + tmp, "write " + tmp, "sync " + tmp, "open " + filepath.Base(dir), "sync " + filepath.Base(dir)}
	if !strings.HasPrefix(tmp, ".f.tmp-") || strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("hook saw %q, want %q", got, want)
	}

	for _, op := range []Op{OpOpen, OpWrite, OpSync} {
		refuse = map[Op]bool{op: true}
		err := WriteFileAtomic(target, []byte("refused"), 0o644)
		var pe *fs.PathError
		if !errors.As(err, &pe) || pe.Op != string(op) || !errors.Is(err, errFull) || filepath.Dir(pe.Path) != dir {
			t.Fatalf("refused %s: %v", op, err)
		}
		if got, _ := os.ReadFile(target); string(got) != "x" {
			t.Fatalf("refused %s: target holds %q", op, got)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("refused %s: %d entries left, want the target alone", op, len(entries))
		}
	}
}

// TestRename: the one rename replaces an existing file, and a missing
// source is an *os.LinkError that still reads as fs.ErrNotExist (the CAS
// retries its placement on that).
func TestRename(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
	for _, f := range []struct{ path, data string }{{src, "new"}, {dst, "old"}} {
		if err := os.WriteFile(f.path, []byte(f.data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "new" {
		t.Fatalf("dst = %q, %v; want the renamed file", got, err)
	}
	err := Rename(src, dst)
	var le *os.LinkError
	if !errors.As(err, &le) || le.Old != src || le.New != dst || !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("renaming a missing file: %v, want an *os.LinkError that is fs.ErrNotExist", err)
	}
}

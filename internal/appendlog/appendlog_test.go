package appendlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
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
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := TrimTornTail(f, int64(len(c.in))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, []byte(c.want)) {
			t.Errorf("%s: %d bytes left, want %d", name, len(got), len(c.want))
		}
	}
}

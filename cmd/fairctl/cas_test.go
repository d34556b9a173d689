package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairflow/internal/cas"
)

// snapshotOnlyStore writes a store the way it looked before the metadata
// logs existed: index.json and actions.json, indented, and the object files —
// three objects, the third referenced by no action.
func snapshotOnlyStore(t *testing.T, dir string) {
	t.Helper()
	var objects, actions []string
	for i, content := range []string{"alpha", "beta-beta", "gamma gamma gamma"} {
		d := cas.HashBytes([]byte(content))
		hx := strings.TrimPrefix(string(d), "sha256:")
		p := filepath.Join(dir, "objects", hx[:2], hx[2:])
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o444); err != nil {
			t.Fatal(err)
		}
		objects = append(objects, fmt.Sprintf("    %q: {\n      \"size\": %d\n    }", hx, len(content)))
		if i < 2 {
			recipe := cas.Recipe{Kind: "test@v1", Params: map[string]string{"i": fmt.Sprint(i)}}.Digest()
			actions = append(actions, fmt.Sprintf("    %q: {\n      \"outputs\": {\n        \"out\": %q\n      }\n    }", recipe, d))
		}
	}
	files := map[string]string{
		"index.json":   "{\n  \"version\": 1,\n  \"objects\": {\n" + strings.Join(objects, ",\n") + "\n  }\n}",
		"actions.json": "{\n  \"version\": 1,\n  \"actions\": {\n" + strings.Join(actions, ",\n") + "\n  }\n}",
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// stdoutOf runs f with os.Stdout redirected to a file and returns what it
// printed.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCasCommandsOnSnapshotOnlyStore: a store holding only the snapshot
// files of the pre-log format reads the same through every `fairctl cas`
// verb; the expected lines are what the pre-log fairctl printed for it.
func TestCasCommandsOnSnapshotOnlyStore(t *testing.T) {
	dir := t.TempDir()
	snapshotOnlyStore(t, dir)
	for _, step := range []struct {
		verb string
		run  func(string)
		want string
	}{
		{"stats", casStats, "objects: 3\nbytes:   31\nactions: 2\n"},
		{"verify", casVerify, "verified 3 object(s): all match their digests\n"},
		{"gc", casGC, "removed 1 object(s), freed 17 byte(s); 2 live\n"},
		{"stats", casStats, "objects: 2\nbytes:   14\nactions: 2\n"},
	} {
		if got := stdoutOf(t, func() { step.run(dir) }); got != step.want {
			t.Fatalf("fairctl cas %s printed\n%q\nwant\n%q", step.verb, got, step.want)
		}
	}
}

// logEraStore writes a store the way it looked while an index sat beside the
// objects: index.json listing the first object, index.json.log the other
// two, actions.json.log the two actions, and the object files — the same
// store snapshotOnlyStore writes.
func logEraStore(t *testing.T, dir string) {
	t.Helper()
	var index, actions []string
	for i, content := range []string{"alpha", "beta-beta", "gamma gamma gamma"} {
		d := cas.HashBytes([]byte(content))
		hx := strings.TrimPrefix(string(d), "sha256:")
		p := filepath.Join(dir, "objects", hx[:2], hx[2:])
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o444); err != nil {
			t.Fatal(err)
		}
		index = append(index, fmt.Sprintf(`{"digest":%q,"size":%d}`+"\n", d, len(content)))
		if i < 2 {
			recipe := cas.Recipe{Kind: "test@v1", Params: map[string]string{"i": fmt.Sprint(i)}}.Digest()
			actions = append(actions, fmt.Sprintf(`{"recipe":%q,"result":{"outputs":{"out":%q}}}`+"\n", recipe, d))
		}
	}
	hx := strings.TrimPrefix(string(cas.HashBytes([]byte("alpha"))), "sha256:")
	files := map[string]string{
		"index.json":       "{\n  \"version\": 1,\n  \"objects\": {\n    \"" + hx + "\": {\n      \"size\": 5\n    }\n  }\n}",
		"index.json.log":   strings.Join(index[1:], ""),
		"actions.json.log": strings.Join(actions, ""),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCasCommandsOnLogEraStore: a store written while the size index existed
// reads as the snapshot-only store does through every `fairctl cas` verb;
// its index files are ignored and left in place.
func TestCasCommandsOnLogEraStore(t *testing.T) {
	dir := t.TempDir()
	logEraStore(t, dir)
	for _, step := range []struct {
		verb string
		run  func(string)
		want string
	}{
		{"stats", casStats, "objects: 3\nbytes:   31\nactions: 2\n"},
		{"verify", casVerify, "verified 3 object(s): all match their digests\n"},
		{"gc", casGC, "removed 1 object(s), freed 17 byte(s); 2 live\n"},
		{"stats", casStats, "objects: 2\nbytes:   14\nactions: 2\n"},
	} {
		if got := stdoutOf(t, func() { step.run(dir) }); got != step.want {
			t.Fatalf("fairctl cas %s printed\n%q\nwant\n%q", step.verb, got, step.want)
		}
	}
	for _, name := range []string{"index.json", "index.json.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

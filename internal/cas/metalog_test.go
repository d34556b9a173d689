package cas

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"

	"fairflow/internal/appendlog"
	"fairflow/internal/telemetry"
)

// openBoth opens the store at dir and its co-located action cache.
func openBoth(t testing.TB, dir string) (*Store, *ActionCache) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenActionCache(filepath.Join(dir, "actions.json"), s)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func testRecipe(i int) Digest {
	return Recipe{Kind: "test@v1", Params: map[string]string{"i": fmt.Sprint(i)}}.Digest()
}

// putEntry stores object i and records action i → that object.
func putEntry(t testing.TB, s *Store, c *ActionCache, i int) Digest {
	t.Helper()
	d, _, err := putBytes(s, []byte(fmt.Sprintf("object %d", i)))
	if err != nil {
		t.Fatal(err)
	}
	res := ActionResult{Outputs: map[string]Digest{"out": d}, Meta: map[string]string{"i": fmt.Sprint(i)}}
	if err := c.Put(testRecipe(i), res); err != nil {
		t.Fatal(err)
	}
	return d
}

// view is everything the public API says about a store and its cache.
type view struct {
	Digests []Digest
	Stats   Stats
	Len     int
	Results []ActionResult // Get(testRecipe(i)) for i < n, zero on a miss
}

func viewOf(s *Store, c *ActionCache, n int) view {
	v := view{Digests: digestsOf(s), Stats: s.Stats(), Len: c.Len()}
	for i := 0; i < n; i++ {
		res, _ := c.Get(testRecipe(i))
		v.Results = append(v.Results, res)
	}
	return v
}

// digestsOf lists the store's objects in digest order.
func digestsOf(s *Store) []Digest {
	var out []Digest
	s.walk(func(_ string, d Digest, _ fs.DirEntry) {
		if d != "" {
			out = append(out, d)
		}
	})
	return out
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestLogTornTailEveryOffset cuts each log at every byte offset of its last
// record: open must succeed with exactly the records before it, and the next
// Put must land on a clean line that a further reopen reads back.
func TestLogTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s, c := openBoth(t, dir)
	var ds []Digest
	for i := 0; i < 3; i++ {
		ds = append(ds, putEntry(t, s, c, i))
	}
	logs := []struct {
		name string
		// count is how many entries a fresh open sees; rePut stores entry 2
		// again through this log's owner only.
		count func(*Store, *ActionCache) int
		rePut func(*Store, *ActionCache) error
	}{
		{"actions.json.log",
			func(_ *Store, c *ActionCache) int { return c.Len() },
			func(_ *Store, c *ActionCache) error {
				return c.Put(testRecipe(2), ActionResult{Outputs: map[string]Digest{"out": ds[2]}, Meta: map[string]string{"i": "2"}})
			}},
	}
	for _, lg := range logs {
		path := filepath.Join(dir, lg.name)
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Count(full, []byte("\n")) != 3 || full[len(full)-1] != '\n' {
			t.Fatalf("%s: want 3 terminated lines, got %q", lg.name, full)
		}
		lastStart := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
		for cut := lastStart; cut < len(full); cut++ {
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s2, c2 := openBoth(t, dir)
			if got := lg.count(s2, c2); got != 2 {
				t.Fatalf("%s cut at %d: open sees %d entries, want 2", lg.name, cut, got)
			}
			for i := 0; i < 2; i++ {
				if res, ok := c2.Get(testRecipe(i)); !ok || res.Outputs["out"] != ds[i] {
					t.Fatalf("%s cut at %d: Get(%d) = %+v, %v", lg.name, cut, i, res, ok)
				}
			}
			if err := lg.rePut(s2, c2); err != nil {
				t.Fatalf("%s cut at %d: Put after torn tail: %v", lg.name, cut, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, full) {
				t.Fatalf("%s cut at %d: after the next Put the log is\n%q\nwant\n%q", lg.name, cut, after, full)
			}
			s3, c3 := openBoth(t, dir)
			if got := lg.count(s3, c3); got != 3 {
				t.Fatalf("%s cut at %d: reopen sees %d entries, want 3", lg.name, cut, got)
			}
		}
	}
}

// TestLogRejectsCorruptMiddleLine: a terminated line that fails validation
// is corruption, not a torn write, and must fail the open.
func TestLogRejectsCorruptMiddleLine(t *testing.T) {
	const name = "actions.json.log"
	dir := t.TempDir()
	s, c := openBoth(t, dir)
	putEntry(t, s, c, 0)
	path := filepath.Join(dir, name)
	good, _ := os.ReadFile(path)
	for _, bad := range []string{"{garbage\n", "\n", `{"digest":"sha256:zz","size":1}` + "\n", `{"size":-1}` + "\n"} {
		if err := os.WriteFile(path, append([]byte(bad), good...), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenActionCache(filepath.Join(dir, "actions.json"), s)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s with line %q: open error = %v, want one naming the log", name, bad, err)
		}
	}
}

// TestCompactionPreservesEverything: a store grown by Puts and reopened
// equals the same store after compaction (GC with everything live,
// ActionCache.Save) and a second reopen; compaction leaves no log behind,
// and no Put writes store metadata beside the object files.
func TestCompactionPreservesEverything(t *testing.T) {
	const n = 25
	dir := t.TempDir()
	s, c := openBoth(t, dir)
	for i := 0; i < n; i++ {
		putEntry(t, s, c, i)
	}
	grown := viewOf(s, c, n+1)
	if grown.Stats.Objects != n || grown.Len != n {
		t.Fatalf("grown store: %+v", grown)
	}
	if got, want := listDir(t, dir), []string{"actions.json.log", "objects"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("the grown store holds %v, want %v: the object files are the store's record", got, want)
	}

	s2, c2 := openBoth(t, dir)
	if got := viewOf(s2, c2, n+1); !reflect.DeepEqual(got, grown) {
		t.Fatalf("reopened from logs:\n%+v\nwant\n%+v", got, grown)
	}
	if removed, _, err := s2.GC(c2.Live()); err != nil || removed != 0 {
		t.Fatalf("GC removed %d, err %v", removed, err)
	}
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}
	want := []string{"actions.json", "objects"}
	if got := listDir(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("after compaction the store holds %v, want %v", got, want)
	}
	s3, c3 := openBoth(t, dir)
	if got := viewOf(s3, c3, n+1); !reflect.DeepEqual(got, grown) {
		t.Fatalf("reopened from snapshots:\n%+v\nwant\n%+v", got, grown)
	}
	// A compacted handle keeps working: its next Put starts a new log.
	putEntry(t, s2, c2, n)
	s4, c4 := openBoth(t, dir)
	if s4.Stats().Objects != n+1 || c4.Len() != n+1 {
		t.Fatalf("after a post-compaction Put: %d objects, %d actions", s4.Stats().Objects, c4.Len())
	}
}

// parentFormatStore writes a store the way the pre-log code left one: the
// two snapshots, MarshalIndent'ed, and the object files. It returns the
// object digests.
func parentFormatStore(t *testing.T, dir string) []Digest {
	t.Helper()
	var ds []Digest
	var objects, actions []string
	for i, content := range []string{"alpha", "beta-beta", "gamma gamma gamma"} {
		d := HashBytes([]byte(content))
		ds = append(ds, d)
		hx := d.hexPart()
		p := filepath.Join(dir, "objects", hx[:2], hx[2:])
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o444); err != nil {
			t.Fatal(err)
		}
		objects = append(objects, fmt.Sprintf("    %q: {\n      \"size\": %d\n    }", hx, len(content)))
		if i < 2 { // the third object is dead: no action references it
			actions = append(actions, fmt.Sprintf("    %q: {\n      \"outputs\": {\n        \"out\": %q\n      }\n    }", testRecipe(i), d))
		}
	}
	index := "{\n  \"version\": 1,\n  \"objects\": {\n" + strings.Join(objects, ",\n") + "\n  }\n}"
	acts := "{\n  \"version\": 1,\n  \"actions\": {\n" + strings.Join(actions, ",\n") + "\n  },\n" +
		"  \"files\": {\n    \"/data/in.txt\": {\n      \"size\": 5,\n      \"mtime_ns\": 1700000000000000000,\n      \"sha256\": \"" + string(ds[0]) + "\"\n    }\n  }\n}"
	for name, data := range map[string]string{"index.json": index, "actions.json": acts} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestParentFormatOpensUnchanged: a directory holding only the snapshot
// files of the pre-log format opens to the same contents — its index.json
// ignored, the objects listed from their files — and opening and reading it
// writes nothing.
func TestParentFormatOpensUnchanged(t *testing.T) {
	dir := t.TempDir()
	ds := parentFormatStore(t, dir)
	before := map[string][]byte{}
	for _, name := range []string{"index.json", "actions.json"} {
		before[name], _ = os.ReadFile(filepath.Join(dir, name))
	}

	s, c := openBoth(t, dir)
	if st := s.Stats(); st.Objects != 3 || st.Bytes != int64(len("alpha")+len("beta-beta")+len("gamma gamma gamma")) {
		t.Fatalf("Stats = %+v", st)
	}
	if errs := s.VerifyAll(); len(errs) != 0 {
		t.Fatalf("VerifyAll: %v", errs)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	for i := 0; i < 2; i++ {
		if res, ok := c.Get(testRecipe(i)); !ok || res.Outputs["out"] != ds[i] {
			t.Fatalf("Get(%d) = %+v, %v", i, res, ok)
		}
	}
	if st := c.files["/data/in.txt"]; st.SHA != ds[0] || st.Size != 5 {
		t.Fatalf("file memo = %+v", st)
	}
	if err := c.Save(); err != nil { // nothing changed: must not rewrite
		t.Fatal(err)
	}
	if got, want := listDir(t, dir), []string{"actions.json", "index.json", "objects"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reading the store left %v, want %v", got, want)
	}
	for name, data := range before {
		if now, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(now, data) {
			t.Fatalf("%s was rewritten by a read-only open", name)
		}
	}

	// Growing it leaves the snapshots alone and adds the logs beside them.
	putEntry(t, s, c, 7)
	if now, _ := os.ReadFile(filepath.Join(dir, "index.json")); !bytes.Equal(now, before["index.json"]) {
		t.Fatal("Put rewrote the index snapshot")
	}
	s2, c2 := openBoth(t, dir)
	if s2.Stats().Objects != 4 || c2.Len() != 3 {
		t.Fatalf("snapshot + log reopen: %d objects, %d actions", s2.Stats().Objects, c2.Len())
	}
}

// TestTwoHandlesInterleavedPuts: two ActionCache (and Store) handles on one
// path, appending in turn, lose nothing — with whole-file rewrites the
// second handle's save dropped the first's entries.
func TestTwoHandlesInterleavedPuts(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	sa, ca := openBoth(t, dir)
	sb, cb := openBoth(t, dir)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			putEntry(t, sa, ca, i)
		} else {
			putEntry(t, sb, cb, i)
		}
	}
	s, c := openBoth(t, dir)
	if s.Stats().Objects != n || c.Len() != n {
		t.Fatalf("reopen sees %d objects, %d actions; want %d of each", s.Stats().Objects, c.Len(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(testRecipe(i)); !ok {
			t.Fatalf("entry %d lost", i)
		}
	}
}

// TestPutFailureLeavesMemoryClean: when the log cannot be written, Put
// returns the error and neither this handle nor a reopen sees the entry;
// once the log is writable again the same handle recovers. (The tests run
// as root, so "unwritable" is a directory squatting on the log's name.) A
// Store.Put whose publishing link fails returns the error and leaves neither
// the object nor its temp behind.
func TestPutFailureLeavesMemoryClean(t *testing.T) {
	dir := t.TempDir()
	s, c := openBoth(t, dir)
	d0 := putEntry(t, s, c, 0)
	// Fresh handles, so the log is not open yet.
	s, c = openBoth(t, dir)
	const name = "actions.json.log"
	if err := os.Rename(filepath.Join(dir, name), filepath.Join(dir, name+".aside")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	content := []byte("object 1")
	appendlog.Failpoint = func(op appendlog.Op, _ string) error {
		if op == appendlog.OpLink {
			return syscall.EIO
		}
		return nil
	}
	_, _, err := putBytes(s, content)
	appendlog.Failpoint = nil
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("Store.Put with its link refused: err %v, want EIO", err)
	}
	if got := digestsOf(s); !reflect.DeepEqual(got, []Digest{d0}) {
		t.Fatalf("a failed Put left objects %v, want only %v", got, d0)
	}
	if got := listDir(t, filepath.Dir(s.objectPath(HashBytes(content)))); slices.ContainsFunc(got, func(n string) bool { return strings.HasPrefix(n, "put-") }) {
		t.Fatalf("a failed Put left its temp: %v", got)
	}
	d, _, err := putBytes(s, content)
	if err != nil {
		t.Fatal(err)
	}
	res := ActionResult{Outputs: map[string]Digest{"out": d}}
	if err := c.Put(testRecipe(1), res); err == nil {
		t.Fatal("ActionCache.Put succeeded with an unwritable log")
	}
	if _, ok := c.Get(testRecipe(1)); ok || c.Len() != 1 {
		t.Fatalf("failed Put is visible in memory (Len %d)", c.Len())
	}
	if err := os.Remove(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, name+".aside"), filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
	if _, c2 := openBoth(t, dir); c2.Len() != 1 {
		t.Fatalf("failed Put reached disk: %d actions", c2.Len())
	}
	// The handle that failed works again now.
	putEntry(t, s, c, 1)
	s3, c3 := openBoth(t, dir)
	if _, ok := c3.Get(testRecipe(1)); !ok || s3.Stats().Objects != 2 {
		t.Fatalf("recovered Put missing after reopen: %d objects, %d actions", s3.Stats().Objects, c3.Len())
	}
}

// TestActionPutAllocsFlatInStoreSize pins the point of the log: what one
// Put allocates must not grow with the number of entries already stored.
func TestActionPutAllocsFlatInStoreSize(t *testing.T) {
	dir := t.TempDir()
	s, c := openBoth(t, dir)
	out, _, err := putBytes(s, []byte("shared output"))
	if err != nil {
		t.Fatal(err)
	}
	recipes := make([]Digest, 1001)
	for i := range recipes {
		recipes[i] = testRecipe(i)
	}
	res := ActionResult{Outputs: map[string]Digest{"out": out}}
	bytesOf := map[int]uint64{}
	var before, after runtime.MemStats
	for i := 1; i <= 1000; i++ {
		runtime.ReadMemStats(&before)
		if err := c.Put(recipes[i], res); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytesOf[i] = after.TotalAlloc - before.TotalAlloc
	}
	// A map growth step can land on either Put, so compare with headroom
	// for one bucket array at the smaller size but none for a whole-store
	// re-marshal (≈ 200 B per entry, 200 KB at the 1000th).
	if b10, b1000 := bytesOf[10], bytesOf[1000]; b1000 > 2*b10+1024 {
		t.Fatalf("1000th Put allocated %d B, 10th %d B: Put cost grows with the store", b1000, b10)
	}
}

// TestPutLatencyHistograms: SetMetrics registers one latency histogram per
// write path and each call observes once.
func TestPutLatencyHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, c := openBoth(t, t.TempDir())
	c.SetMetrics(reg)
	for i := 0; i < 3; i++ {
		putEntry(t, s, c, i)
	}
	if _, _, err := putBytes(s, []byte("object 0")); err != nil { // dedup: still one call
		t.Fatal(err)
	}
	if got := reg.Histogram("cas.put_seconds", nil).Count(); got != 4 {
		t.Fatalf("cas.put_seconds count = %d, want 4", got)
	}
	if got := reg.Histogram("cas.action_put_seconds", nil).Count(); got != 3 {
		t.Fatalf("cas.action_put_seconds count = %d, want 3", got)
	}
}

// TestPutSurvivesKill: every Put that returned is there after the process is
// killed with no Close, Save or GC ever called. The child (this test binary
// re-run with CAS_KILL_DIR set) announces each entry only after both Puts
// for it returned; the parent kills it mid-stream and reopens. A temp that
// a put killed mid-way leaves in a fan-out directory is not an object:
// VerifyAll and Stats pass over it.
func TestPutSurvivesKill(t *testing.T) {
	if dir := os.Getenv("CAS_KILL_DIR"); dir != "" {
		s, c := openBoth(t, dir)
		for i := 0; ; i++ {
			putEntry(t, s, c, i)
			fmt.Printf("put %d\n", i)
		}
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestPutSurvivesKill$")
	cmd.Env = append(os.Environ(), "CAS_KILL_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	announced := 0
	sc := bufio.NewScanner(out)
	for announced < 200 && sc.Scan() {
		var i int
		if _, err := fmt.Sscanf(sc.Text(), "put %d", &i); err == nil {
			announced = i + 1
		}
	}
	cmd.Process.Kill() // SIGKILL: no deferred anything runs in the child
	cmd.Wait()
	if announced < 200 {
		t.Fatalf("child announced only %d entries", announced)
	}
	d0 := HashBytes([]byte("object 0")).hexPart()
	if err := os.WriteFile(filepath.Join(dir, "objects", d0[:2], "put-12345"), []byte("torn"), 0o444); err != nil {
		t.Fatal(err)
	}
	s, c := openBoth(t, dir)
	if s.Stats().Objects < announced || c.Len() < announced {
		t.Fatalf("after kill -9: %d objects, %d actions; %d were announced", s.Stats().Objects, c.Len(), announced)
	}
	for i := 0; i < announced; i++ {
		if _, ok := c.Get(testRecipe(i)); !ok {
			t.Fatalf("entry %d was announced but is gone after kill -9", i)
		}
	}
	if errs := s.VerifyAll(); len(errs) != 0 {
		t.Fatalf("VerifyAll after kill -9: %v", errs)
	}
}

// TestSnapshotFsyncsGoThroughTheHook: ActionCache.Save writes its snapshot
// through appendlog's WriteFileAtomic, so its fsyncs — the temp file, then
// the store directory — are seen by the failpoint hook, and one the hook
// refuses fails the compaction and leaves the previous state in place. GC
// writes no metadata: it fsyncs nothing.
func TestSnapshotFsyncsGoThroughTheHook(t *testing.T) {
	dir := t.TempDir()
	s, c := openBoth(t, dir)
	for i := 0; i < 3; i++ {
		putEntry(t, s, c, i)
	}
	fsyncs := recordFsyncs(t)
	if _, _, err := s.GC(c.Live()); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	got := fsyncs()
	if len(got) != 2 || !strings.HasPrefix(filepath.Base(got[0]), ".actions.json.tmp-") || got[1] != dir {
		t.Fatalf("compaction fsynced %q, want actions.json's temp file, %s", got, dir)
	}

	putEntry(t, s, c, 3)
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		if op == appendlog.OpSync && strings.HasPrefix(filepath.Base(path), ".actions.json.tmp-") {
			return errors.New("refused")
		}
		return nil
	}
	if err := c.Save(); err == nil {
		t.Fatal("Save succeeded although its snapshot's fsync failed")
	}
	appendlog.Failpoint = nil
	if _, err := os.Stat(filepath.Join(dir, "actions.json.log")); err != nil {
		t.Fatalf("a failed Save dropped the log it had not folded in: %v", err)
	}
	if _, c2 := openBoth(t, dir); c2.Len() != 4 {
		t.Fatalf("reopened cache holds %d actions, want 4", c2.Len())
	}
}

package cas

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("hello, content-addressed world\n")
	d, n, err := s.PutBytes(content)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(content)) {
		t.Fatalf("size = %d, want %d", n, len(content))
	}
	if !d.Valid() {
		t.Fatalf("digest %q not valid", d)
	}
	if d != HashBytes(content) {
		t.Fatalf("Put digest %s != HashBytes %s", d, HashBytes(content))
	}
	if !s.Has(d) {
		t.Fatal("Has = false after Put")
	}
	rc, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("Get returned %q, want %q", got, content)
	}
}

func TestPutDeduplicates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d1, _, err := s.PutBytes([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := s.PutBytes([]byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digests differ: %s vs %s", d1, d2)
	}
	if st := s.Stats(); st.Objects != 1 {
		t.Fatalf("Objects = %d, want 1", st.Objects)
	}
}

func TestIndexPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := s.PutBytes([]byte("persist me"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Has(d) {
		t.Fatal("reopened store lost the object")
	}
	st := s2.Stats()
	if st.Objects != 1 || st.Bytes != int64(len("persist me")) {
		t.Fatalf("stats after reopen = %+v", st)
	}
}

func TestMaterializeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte(strings.Repeat("row\tcol\n", 1000))
	d, _, err := s.PutBytes(content)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize over a pre-existing stale file must replace it.
	dst := filepath.Join(dir, "out", "mat.tsv")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(d, dst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("materialized bytes differ from stored content")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := s.PutBytes([]byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(d); err != nil {
		t.Fatalf("fresh object failed verify: %v", err)
	}
	if errs := s.VerifyAll(); len(errs) != 0 {
		t.Fatalf("VerifyAll on clean store: %v", errs)
	}
	if err := os.WriteFile(s.objectPath(d), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(d); err == nil {
		t.Fatal("Verify missed corruption")
	}
	if errs := s.VerifyAll(); len(errs) != 1 {
		t.Fatalf("VerifyAll found %d errors, want 1", len(errs))
	}
}

func TestGCKeepsLiveRemovesDead(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := s.PutBytes([]byte("referenced output"))
	if err != nil {
		t.Fatal(err)
	}
	dead, _, err := s.PutBytes([]byte("orphaned intermediate"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenActionCache(filepath.Join(dir, "actions.json"), s)
	if err != nil {
		t.Fatal(err)
	}
	rec := Recipe{Kind: "test/op@v1", Inputs: []Digest{HashBytes([]byte("in"))}}
	if err := cache.Put(rec.Digest(), ActionResult{Outputs: map[string]Digest{"out": live}}); err != nil {
		t.Fatal(err)
	}
	removed, freed, err := s.GC(cache.Live())
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != int64(len("orphaned intermediate")) {
		t.Fatalf("GC removed %d objects / %d bytes, want 1 / %d", removed, freed, len("orphaned intermediate"))
	}
	if !s.Has(live) {
		t.Fatal("GC removed a live object")
	}
	if s.Has(dead) {
		t.Fatal("GC kept a dead object")
	}
	// The GC'd entry must now miss (Get checks store presence).
	if _, ok := cache.Get(Recipe{Kind: "other"}.Digest()); ok {
		t.Fatal("phantom hit")
	}
}

func TestActionCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := s.PutBytes([]byte("the output"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "actions.json")
	cache, err := OpenActionCache(path, s)
	if err != nil {
		t.Fatal(err)
	}
	rec := Recipe{
		Kind:   "tabular/paste@v1",
		Params: map[string]string{"delim": "\t"},
		Inputs: []Digest{HashBytes([]byte("a")), HashBytes([]byte("b"))},
	}
	res := ActionResult{
		Outputs: map[string]Digest{"out": out},
		Meta:    map[string]string{"rows": "42"},
	}
	if err := cache.Put(rec.Digest(), res); err != nil {
		t.Fatal(err)
	}
	// Reload from disk; the entry must survive with metadata intact.
	cache2, err := OpenActionCache(path, s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cache2.Get(rec.Digest())
	if !ok {
		t.Fatal("cache miss after reload")
	}
	if got.Outputs["out"] != out || got.Meta["rows"] != "42" {
		t.Fatalf("reloaded result = %+v", got)
	}
	if cache2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", cache2.Len())
	}
}

func TestActionCacheMissWhenOutputEvicted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := s.PutBytes([]byte("will vanish"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenActionCache(filepath.Join(dir, "actions.json"), s)
	if err != nil {
		t.Fatal(err)
	}
	rd := Recipe{Kind: "k"}.Digest()
	if err := cache.Put(rd, ActionResult{Outputs: map[string]Digest{"out": out}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Get(rd); !ok {
		t.Fatal("expected hit before eviction")
	}
	os.Remove(s.objectPath(out))
	if _, ok := cache.Get(rd); ok {
		t.Fatal("hit reported for evicted output — would materialize nothing")
	}
}

func TestRecipeDigestSensitivity(t *testing.T) {
	base := Recipe{
		Kind:   "op@v1",
		Params: map[string]string{"a": "1", "b": "2"},
		Inputs: []Digest{HashBytes([]byte("x")), HashBytes([]byte("y"))},
	}
	variants := []Recipe{
		{Kind: "op@v2", Params: base.Params, Inputs: base.Inputs},
		{Kind: base.Kind, Params: map[string]string{"a": "1", "b": "3"}, Inputs: base.Inputs},
		{Kind: base.Kind, Params: base.Params, Inputs: []Digest{base.Inputs[1], base.Inputs[0]}}, // order matters
		{Kind: base.Kind, Params: base.Params, Inputs: base.Inputs[:1]},
	}
	bd := base.Digest()
	for i, v := range variants {
		if v.Digest() == bd {
			t.Fatalf("variant %d collides with base recipe", i)
		}
	}
	// Param iteration order must not matter.
	same := Recipe{Kind: "op@v1", Params: map[string]string{"b": "2", "a": "1"}, Inputs: base.Inputs}
	if same.Digest() != bd {
		t.Fatal("recipe digest depends on map iteration order")
	}
}

func TestHashFileCachedTrustsStatAndInvalidatesOnChange(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenActionCache(filepath.Join(dir, "actions.json"), s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "input.txt")
	if err := os.WriteFile(path, []byte("v1 contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	d1, err := cache.HashFileCached(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := HashBytes([]byte("v1 contents")); d1 != want {
		t.Fatalf("digest = %s, want %s", d1, want)
	}
	d2, err := cache.HashFileCached(path)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d1 {
		t.Fatal("stat-unchanged rehash returned a different digest")
	}
	if err := os.WriteFile(path, []byte("v2 contents!"), 0o644); err != nil {
		t.Fatal(err)
	}
	d3, err := cache.HashFileCached(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := HashBytes([]byte("v2 contents!")); d3 != want {
		t.Fatalf("changed file digest = %s, want %s", d3, want)
	}
}

func TestOpenRejectsCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted an unsupported index version")
	}
}

// recordFsyncs routes the package's fsync seam through a recorder for the
// length of the test and returns the names fsynced so far, in order.
func recordFsyncs(t *testing.T) func() []string {
	var mu sync.Mutex
	var names []string
	fsync = func(f *os.File) error {
		mu.Lock()
		names = append(names, f.Name())
		mu.Unlock()
		return f.Sync()
	}
	t.Cleanup(func() { fsync = (*os.File).Sync })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), names...)
	}
}

// TestPutMakesFanoutDirectoryDurable: the first object a handle stores under
// objects/<aa> fsyncs objects/ — the entry of <aa> itself — before the object
// is renamed in, and no later put under the same <aa> pays for it again. A
// second handle cannot know the first one got that far, so it fsyncs once too.
func TestPutMakesFanoutDirectoryDurable(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	// Three contents under one fan-out directory (a, b, again) and one under
	// another (c).
	fanOf := func(content string) string {
		return filepath.Join(root, "objects", HashBytes([]byte(content)).hexPart()[:2])
	}
	byFan := map[string][]string{}
	var same []string
	for i := 0; same == nil; i++ {
		content := fmt.Sprintf("object %d", i)
		fan := fanOf(content)
		if byFan[fan] = append(byFan[fan], content); len(byFan[fan]) == 3 {
			same = byFan[fan]
		}
	}
	a, b, again := same[0], same[1], same[2]
	var c string
	for fan, list := range byFan {
		if fan != fanOf(a) {
			c = list[0]
		}
	}
	objects := filepath.Join(root, "objects")
	fsyncs := recordFsyncs(t)
	count := func(name string) (n int) {
		for _, got := range fsyncs() {
			if got == name {
				n++
			}
		}
		return n
	}

	if _, _, err := s.PutBytes([]byte(a)); err != nil {
		t.Fatal(err)
	}
	got := fsyncs()
	// temp object, objects/, objects/<aa>, then the index log.
	if len(got) < 3 || filepath.Dir(got[0]) != objects || got[1] != objects || got[2] != fanOf(a) {
		t.Fatalf("first put fsynced %q, want the temp object, then %s, then %s", got, objects, fanOf(a))
	}
	if _, _, err := s.PutBytes([]byte(b)); err != nil {
		t.Fatal(err)
	}
	if n := count(objects); n != 1 {
		t.Fatalf("objects/ fsynced %d times after two puts under one fan-out directory, want 1", n)
	}
	if n := count(fanOf(a)); n != 2 {
		t.Fatalf("%s fsynced %d times after two puts, want 2", fanOf(a), n)
	}
	if _, _, err := s.PutBytes([]byte(c)); err != nil {
		t.Fatal(err)
	}
	if n := count(objects); n != 2 {
		t.Fatalf("objects/ fsynced %d times after a second fan-out directory appeared, want 2", n)
	}

	second, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := second.PutBytes([]byte(again)); err != nil {
		t.Fatal(err)
	}
	if n := count(objects); n != 3 {
		t.Fatalf("objects/ fsynced %d times after a second handle first used an existing fan-out directory, want 3", n)
	}
}

// TestPutSurvivesRemovedFanoutDirectory: a fan-out directory deleted behind
// an open handle is re-created by the next put that needs it.
func TestPutSurvivesRemovedFanoutDirectory(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("stored, lost, stored again")
	d, _, err := s.PutBytes(content)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Dir(s.objectPath(d))); err != nil {
		t.Fatal(err)
	}
	if s.Has(d) {
		t.Fatal("object survived the removal of its directory")
	}
	fsyncs := recordFsyncs(t)
	if _, _, err := s.PutBytes(content); err != nil {
		t.Fatalf("put after the fan-out directory was removed: %v", err)
	}
	if err := s.Verify(d); err != nil {
		t.Fatal(err)
	}
	var synced bool
	for _, name := range fsyncs() {
		synced = synced || name == filepath.Join(root, "objects")
	}
	if !synced {
		t.Fatal("the re-created fan-out directory's entry in objects/ was not fsynced")
	}
}

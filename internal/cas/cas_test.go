package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"fairflow/internal/appendlog"
	"fairflow/internal/telemetry"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("hello, content-addressed world\n")
	d, n, err := putBytes(s, content)
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
	got, err := os.ReadFile(s.objectPath(d))
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
	d1, _, err := putBytes(s, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := putBytes(s, []byte("same"))
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
	d, _, err := putBytes(s, []byte("persist me"))
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
	d, _, err := putBytes(s, content)
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

// TestMaterializeMakesParentAndReplaces: a destination whose directories do
// not exist yet gets them; one that holds another object's link is replaced
// without touching that object.
func TestMaterializeMakesParentAndReplaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	d1, _, err := putBytes(s, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := putBytes(s, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "a", "b", "out")
	for _, d := range []Digest{d1, d2, d2} {
		if err := s.Materialize(d, dst); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "second" {
		t.Fatalf("dst = %q, %v; want %q", got, err, "second")
	}
	for _, d := range []Digest{d1, d2} {
		if err := s.Verify(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaterializeMissingObject: an object the store does not hold, or a
// digest that names none, is an error that leaves the destination alone.
func TestMaterializeMissingObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "out")
	if err := os.WriteFile(dst, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = s.Materialize(HashBytes([]byte("never stored")), dst)
	if !errors.Is(err, fs.ErrNotExist) || !strings.HasPrefix(err.Error(), "cas: materialize ") {
		t.Fatalf("missing object: err %v, want a cas: materialize error wrapping ErrNotExist", err)
	}
	for _, bad := range []Digest{"", "sha256:", "sha256:zz", "md5:0123"} {
		if err := s.Materialize(bad, dst); err == nil {
			t.Fatalf("malformed digest %q materialized", bad)
		}
	}
	if err := s.Materialize(HashBytes([]byte("never stored")), filepath.Join(dir, "sub", "out")); err == nil {
		t.Fatal("missing object materialized into a new directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "sub")); err == nil {
		t.Fatal("a failed materialize created the destination's directory")
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "keep" {
		t.Fatalf("dst after failed materializes = %q, %v; want it untouched", got, err)
	}
}

// TestMaterializeCopiesWhereLinksFail: a store on another filesystem than
// the destination (tmpfs at /dev/shm) is copied out, over a destination that
// is a hard link into a second store, which stays intact. Skipped where
// /dev/shm is missing or shares the test directory's filesystem.
func TestMaterializeCopiesWhereLinksFail(t *testing.T) {
	dir := t.TempDir()
	far, err := os.MkdirTemp("/dev/shm", "cas-xdev-")
	if err != nil {
		t.Skipf("no second filesystem: %v", err)
	}
	t.Cleanup(func() { os.RemoveAll(far) })
	if err := os.WriteFile(filepath.Join(far, "p"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if os.Link(filepath.Join(far, "p"), filepath.Join(dir, "p")) == nil {
		t.Skip("/dev/shm and the test directory share a filesystem")
	}
	src, err := Open(filepath.Join(far, "store"))
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := putBytes(src, []byte("copied"))
	if err != nil {
		t.Fatal(err)
	}
	near, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := putBytes(near, []byte("linked"))
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "out")
	if err := near.Materialize(other, dst); err != nil {
		t.Fatal(err)
	}
	if err := src.Materialize(d, dst); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(dst); err != nil || string(got) != "copied" {
		t.Fatalf("dst = %q, %v; want %q", got, err, "copied")
	}
	if err := near.Verify(other); err != nil {
		t.Fatalf("copy wrote through the destination's old link: %v", err)
	}
	fi, err := os.Stat(dst)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("copied dst mode %v, want 0644", fi.Mode().Perm())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 2 { // store, out
		t.Fatalf("materialize left %d entries beside dst, want none: %v", len(entries)-2, entries)
	}
}

// TestMaterializeConcurrentSameDestination: restores racing for one path end
// with one of the objects there and every object intact. A restore that
// found the path taken must replace it, never write through what another
// restore just linked there — that is the store's own read-only object.
func TestMaterializeConcurrentSameDestination(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	var ds []Digest
	for _, c := range []string{"alpha", "beta"} {
		d, _, err := putBytes(s, []byte(strings.Repeat(c, 1000)))
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	dst := filepath.Join(dir, "out")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := s.Materialize(ds[(g+i)%2], dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, d := range ds {
		if err := s.Verify(d); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := HashFile(dst)
	if err != nil || (got != ds[0] && got != ds[1]) {
		t.Fatalf("dst hashes to %s (%v), want one of the objects", got, err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := putBytes(s, []byte("pristine"))
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
	live, _, err := putBytes(s, []byte("referenced output"))
	if err != nil {
		t.Fatal(err)
	}
	dead, _, err := putBytes(s, []byte("orphaned intermediate"))
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
	out, _, err := putBytes(s, []byte("the output"))
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
	out, _, err := putBytes(s, []byte("will vanish"))
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

// pinnedRecipes are recipes whose digests were recorded from the fmt-based
// encoder every existing action cache was written with: empty fields, a
// separator inside a key, multi-byte runes, multi-digit lengths and counts.
func pinnedRecipes() []Recipe {
	many := map[string]string{}
	for i := 0; i < 12; i++ {
		many["k"+strconv.Itoa(i)] = strings.Repeat("v", i*11)
	}
	var inputs []Digest
	for i := 0; i < 11; i++ {
		inputs = append(inputs, HashBytes([]byte{byte(i)}))
	}
	return []Recipe{
		{},
		{Kind: "tabular/paste@v1", Params: map[string]string{"delim": "\t", "ragged": "false"},
			Inputs: []Digest{HashBytes([]byte("a")), HashBytes([]byte("b"))}},
		{Kind: "op@v1", Params: map[string]string{"": "", "é": "ü", "a:1": "2:b"}, Inputs: []Digest{""}},
		{Kind: strings.Repeat("k", 130), Params: many, Inputs: inputs},
	}
}

// TestRecipeDigestPinned: the recipe encoding keys every action cache on
// disk, so a re-implementation must hash the same bytes — a drift would turn
// every warm cache cold without an error.
func TestRecipeDigestPinned(t *testing.T) {
	want := []Digest{
		"sha256:eb61bfec43bbadd8fc3d4c23e31d7261cc1e34a60ea5e5e0daf31237599e6811",
		"sha256:f17948a11757e9b7bb777fa4861b6ee61ec8806134a3477daf8e169a6600478f",
		"sha256:fb82efae5a7b04d7ce4864a8cac05d3086a0b7780a9d8a7fb9095bf99e09f459",
		"sha256:d5ce4e88382dfd1b21c269600e89042488c5005707c2b0d45214334c7bdf5a5b",
	}
	for i, r := range pinnedRecipes() {
		if got := r.Digest(); got != want[i] {
			t.Errorf("recipe %d: digest %s, want %s", i, got, want[i])
		}
	}
}

// referenceRecipeDigest is the recipe encoding written out with fmt, field by
// field, straight into the hash.
func referenceRecipeDigest(r Recipe) Digest {
	h := sha256.New()
	field := func(s string) { fmt.Fprintf(h, "%d:%s", len(s), s) }
	field(r.Kind)
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(h, "p%d:", len(keys))
	for _, k := range keys {
		field(k)
		field(r.Params[k])
	}
	fmt.Fprintf(h, "i%d:", len(r.Inputs))
	for _, in := range r.Inputs {
		field(string(in))
	}
	return Digest("sha256:" + hex.EncodeToString(h.Sum(nil)))
}

// TestDigestValid: a digest is the algorithm tag and 64 hex digits of either
// case, and checking one allocates nothing.
func TestDigestValid(t *testing.T) {
	good := HashBytes([]byte("x"))
	cases := map[Digest]bool{
		good: true,
		Digest(strings.ToUpper(string(good[:7])) + string(good[7:])): false,
		Digest(string(good[:7]) + strings.ToUpper(string(good[7:]))): true,
		good[:len(good)-1]:       false,
		good + "0":               false,
		good[:len(good)-1] + "g": false,
		"sha256:":                false,
		"":                       false,
	}
	for d, want := range cases {
		if got := d.Valid(); got != want {
			t.Errorf("Valid(%q) = %v, want %v", d, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { good.Valid() }); n != 0 {
		t.Fatalf("Valid allocates %.0f times", n)
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

// recordSteps routes appendlog's failpoint hook through a recorder for the
// length of the test and returns the steps it saw so far, in order, each as
// "<op> <path>".
func recordSteps(t *testing.T) func() []string {
	var mu sync.Mutex
	var steps []string
	appendlog.Failpoint = func(op appendlog.Op, path string) error {
		mu.Lock()
		steps = append(steps, string(op)+" "+path)
		mu.Unlock()
		return nil
	}
	t.Cleanup(func() { appendlog.Failpoint = nil })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), steps...)
	}
}

// recordFsyncs is recordSteps narrowed to fsyncs, returning their paths.
func recordFsyncs(t *testing.T) func() []string {
	steps := recordSteps(t)
	return func() []string {
		var names []string
		for _, st := range steps() {
			if name, ok := strings.CutPrefix(st, string(appendlog.OpSync)+" "); ok {
				names = append(names, name)
			}
		}
		return names
	}
}

// TestPutMakesFanoutDirectoryDurable: the first object a handle stores under
// objects/<aa> fsyncs objects/ — the entry of <aa> itself — before anything
// is written there, then the temp object, links it in and fsyncs
// objects/<aa>; no later put under the same <aa> pays for objects/ again. A
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
	steps := recordSteps(t)
	fsyncs := func() (names []string) {
		for _, st := range steps() {
			if name, ok := strings.CutPrefix(st, "sync "); ok {
				names = append(names, name)
			}
		}
		return names
	}
	count := func(name string) (n int) {
		for _, got := range fsyncs() {
			if got == name {
				n++
			}
		}
		return n
	}

	if _, _, err := putBytes(s, []byte(a)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, st := range steps() {
		if op, path, _ := strings.Cut(st, " "); op != "open" && op != "write" {
			if op == "sync" && filepath.Dir(path) == fanOf(a) {
				path = filepath.Join(fanOf(a), "<temp>")
			}
			got = append(got, op+" "+path)
		}
	}
	want := []string{"mkdir " + fanOf(a), "sync " + objects, "sync " + filepath.Join(fanOf(a), "<temp>"),
		"link " + filepath.Join(fanOf(a), HashBytes([]byte(a)).hexPart()[2:]), "sync " + fanOf(a)}
	if !slices.Equal(got, want) {
		t.Fatalf("first put made the durable steps\n%q\nwant\n%q", got, want)
	}
	if _, _, err := putBytes(s, []byte(b)); err != nil {
		t.Fatal(err)
	}
	if n := count(objects); n != 1 {
		t.Fatalf("objects/ fsynced %d times after two puts under one fan-out directory, want 1", n)
	}
	if n := count(fanOf(a)); n != 2 {
		t.Fatalf("%s fsynced %d times after two puts, want 2", fanOf(a), n)
	}
	if _, _, err := putBytes(s, []byte(c)); err != nil {
		t.Fatal(err)
	}
	if n := count(objects); n != 2 {
		t.Fatalf("objects/ fsynced %d times after a second fan-out directory appeared, want 2", n)
	}

	second, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := putBytes(second, []byte(again)); err != nil {
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
	d, _, err := putBytes(s, content)
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
	if _, _, err := putBytes(s, content); err != nil {
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

// sameFanout returns two distinct contents of size bytes whose objects
// share a fan-out directory.
func sameFanout(size int) (a, b []byte) {
	byFan := map[string][]byte{}
	for i := 0; ; i++ {
		c := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, size/2)
		aa := HashBytes(c).hexPart()[:2]
		if prev, ok := byFan[aa]; ok {
			return prev, c
		}
		byFan[aa] = c
	}
}

// TestPutOpsPerObject pins a put's durable steps as the failpoint sees them.
// A cold 4 KiB put into a fan-out directory the handle has used: the source
// opened, the directory opened, the temp created, written and fsynced, the
// link, the directory fsynced. A put of bytes already stored makes the same
// steps up to the link, which finds the object, and no directory fsync.
func TestPutOpsPerObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	warm, cold := sameFanout(4096)
	if _, _, err := putBytes(s, warm); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, "out")
	if err := os.WriteFile(src, cold, 0o644); err != nil {
		t.Fatal(err)
	}
	hx := HashBytes(cold).hexPart()
	fan := filepath.Join(dir, "store", "objects", hx[:2])
	wantCold := []string{"open " + src, "open " + fan, "open <temp>", "write <temp>", "sync <temp>",
		"link " + filepath.Join(fan, hx[2:]), "sync " + fan}
	for _, want := range [][]string{wantCold, wantCold[:6]} {
		steps := recordSteps(t)
		if _, _, err := s.PutFile(src); err != nil {
			t.Fatal(err)
		}
		got := steps()
		for i, st := range got {
			if op, path, _ := strings.Cut(st, " "); filepath.Dir(path) == fan && strings.HasPrefix(filepath.Base(path), "put-") {
				got[i] = op + " <temp>"
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("put made the steps\n%q\nwant\n%q", got, want)
		}
	}
}

// TestPutConcurrentIdenticalContent: puts of one content racing on one
// handle store one object; every other put is a dedup, every put returns the
// same digest, and no temp is left.
func TestPutConcurrentIdenticalContent(t *testing.T) {
	const n = 8
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.SetMetrics(reg)
	content := []byte(strings.Repeat("same bytes\n", 400))
	digests := make([]Digest, n)
	var wg sync.WaitGroup
	for g := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, _, err := putBytes(s, content)
			if err != nil {
				t.Error(err)
			}
			digests[g] = d
		}()
	}
	wg.Wait()
	for _, d := range digests {
		if d != HashBytes(content) {
			t.Fatalf("digests %v, want every one %s", digests, HashBytes(content))
		}
	}
	if put, dedup := reg.Counter("cas.objects_put_total").Value(), reg.Counter("cas.put_dedup_total").Value(); put != 1 || dedup != n-1 {
		t.Fatalf("%d objects put, %d dedups; want 1 and %d", put, dedup, n-1)
	}
	if got := listDir(t, filepath.Dir(s.objectPath(digests[0]))); len(got) != 1 {
		t.Fatalf("the fan-out directory holds %v, want the object alone", got)
	}
}

// TestPutFallsBackWhereLinksRefused: on a filesystem that refuses hard links
// (the failpoint answers every link with EPERM) a put renames its temp into
// place instead, storing the same bytes, and a second put of them is a dedup.
func TestPutFallsBackWhereLinksRefused(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.SetMetrics(reg)
	appendlog.Failpoint = func(op appendlog.Op, _ string) error {
		if op == appendlog.OpLink {
			return syscall.EPERM
		}
		return nil
	}
	t.Cleanup(func() { appendlog.Failpoint = nil })
	content := []byte(strings.Repeat("no links here\n", 300))
	for i := 0; i < 2; i++ {
		d, _, err := putBytes(s, content)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(s.objectPath(d)); err != nil || !bytes.Equal(got, content) {
			t.Fatalf("put %d: object holds %d bytes (%v), want the %d put", i, len(got), err, len(content))
		}
	}
	if put, dedup := reg.Counter("cas.objects_put_total").Value(), reg.Counter("cas.put_dedup_total").Value(); put != 1 || dedup != 1 {
		t.Fatalf("%d objects put, %d dedups; want 1 and 1", put, dedup)
	}
	if got := listDir(t, filepath.Dir(s.objectPath(HashBytes(content)))); len(got) != 1 {
		t.Fatalf("the fan-out directory holds %v, want the object alone", got)
	}
}

// TestPutLargeSource: a source of several chunks is spooled through objects/
// and stored byte-identically, with no temp left in either directory; a
// second put of it is a dedup.
func TestPutLargeSource(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	path := writeRandomFile(t, dir, "big.bin", 3<<20, 7)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		d, n, err := s.PutFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if d != HashBytes(want) || n != int64(len(want)) {
			t.Fatalf("put %d = (%s, %d), want (%s, %d)", i, d.Short(), n, HashBytes(want).Short(), len(want))
		}
		if got, err := os.ReadFile(s.objectPath(d)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("put %d: stored object differs from the source (%v)", i, err)
		}
	}
	hx := HashBytes(want).hexPart()
	if got := listDir(t, filepath.Join(dir, "store", "objects")); !slices.Equal(got, []string{hx[:2]}) {
		t.Fatalf("objects/ holds %v, want the one fan-out directory", got)
	}
	if got := listDir(t, filepath.Join(dir, "store", "objects", hx[:2])); !slices.Equal(got, []string{hx[2:]}) {
		t.Fatalf("the fan-out directory holds %v, want the object alone", got)
	}
}

// TestGCSweepsPutLeftovers: the temps a killed put leaves, in objects/ and in
// a fan-out directory, are removed by GC and counted nowhere; names that are
// neither objects nor temps are left alone.
func TestGCSweepsPutLeftovers(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := putBytes(s, []byte("kept"))
	if err != nil {
		t.Fatal(err)
	}
	fan := filepath.Dir(s.objectPath(d))
	for _, p := range []string{filepath.Join(root, "objects", "put-1"), filepath.Join(fan, "put-2"), filepath.Join(fan, "notes")} {
		if err := os.WriteFile(p, []byte("leftover"), 0o444); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Objects != 1 || st.Bytes != 4 {
		t.Fatalf("Stats = %+v, want the one object", st)
	}
	removed, freed, err := s.GC(map[Digest]bool{d: true})
	if err != nil || removed != 0 || freed != 0 {
		t.Fatalf("GC = %d, %d, %v; want nothing counted", removed, freed, err)
	}
	if got := listDir(t, filepath.Join(root, "objects")); !slices.Equal(got, []string{filepath.Base(fan)}) {
		t.Fatalf("objects/ after GC holds %v", got)
	}
	if got, want := listDir(t, fan), []string{d.hexPart()[2:], "notes"}; !slices.Equal(got, want) {
		t.Fatalf("the fan-out directory after GC holds %v, want %v", got, want)
	}
}

// TestPutHoldsNoDescriptor: no descriptor outlives a put — stored, deduped
// or failed — so a process may open any number of stores. Skipped where
// /proc/self/fd is missing.
func TestPutHoldsNoDescriptor(t *testing.T) {
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	for i := 0; i < 50; i++ {
		if _, _, err := putBytes(s, []byte(fmt.Sprintf("object %d", i%25))); err != nil {
			t.Fatal(err)
		}
	}
	appendlog.Failpoint = func(op appendlog.Op, _ string) error {
		if op == appendlog.OpLink {
			return syscall.EIO
		}
		return nil
	}
	t.Cleanup(func() { appendlog.Failpoint = nil })
	if _, _, err := putBytes(s, []byte("refused")); err == nil {
		t.Fatal("a put whose link failed succeeded")
	}
	if after := openFDs(); after != before {
		t.Fatalf("%d descriptors open after the puts, %d before", after, before)
	}
}

// putBytes stores b as PutFile does a file's content.
func putBytes(s *Store, b []byte) (Digest, int64, error) {
	return s.put(bytes.NewReader(b))
}

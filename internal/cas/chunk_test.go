package cas

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeRandomFile writes n pseudorandom bytes (seeded) to dir/name.
func writeRandomFile(t testing.TB, dir, name string, n int, seed int64) string {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestHashFilePutAgreeMultiChunk pins the satellite contract: HashFile,
// HashReader, HashBytes and Put all agree on the digest of an input larger
// than the chunked kernel's buffer — so a digest computed without storing
// (provenance, memo lookups) always matches what ingestion stores under.
func TestHashFilePutAgreeMultiChunk(t *testing.T) {
	dir := t.TempDir()
	// 2.5 chunks plus a ragged tail: exercises full-buffer reads, a partial
	// final read, and the chunk-boundary stitching in between.
	n := chunkSize*2 + chunkSize/2 + 17
	path := writeRandomFile(t, dir, "big.bin", n, 42)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	want := HashBytes(data)
	hf, hn, err := HashFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hf != want || hn != int64(n) {
		t.Fatalf("HashFile = (%s, %d), want (%s, %d)", hf.Short(), hn, want.Short(), n)
	}
	hr, _, err := HashReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if hr != want {
		t.Fatalf("HashReader = %s, want %s", hr.Short(), want.Short())
	}

	store, err := Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	pd, pn, err := store.PutFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pd != want || pn != int64(n) {
		t.Fatalf("Put = (%s, %d), want (%s, %d)", pd.Short(), pn, want.Short(), n)
	}
	if err := store.Verify(pd); err != nil {
		t.Fatalf("Verify after multi-chunk Put: %v", err)
	}
	got, err := os.ReadFile(store.objectPath(pd))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stored object bytes differ from source")
	}
}

// TestPutAll pins the parallel ingestion contract: results in input order,
// digests identical to sequential PutFile, duplicates deduplicated, and
// every object present after reopen.
func TestPutAll(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 9; i++ {
		// Mix of sub-chunk and multi-chunk files; files 0 and 8 are
		// identical content (dedup case).
		size := 10_000 + i*37
		seed := int64(i)
		if i == 8 {
			seed, size = 0, 10_000 // byte-identical to file 0
		}
		if i == 4 {
			size = chunkSize + 999
		}
		paths = append(paths, writeRandomFile(t, dir, filepath.Base(dir)+string(rune('a'+i)), size, seed))
	}
	want := make([]Digest, len(paths))
	for i, p := range paths {
		d, _, err := HashFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}

	root := filepath.Join(dir, "cas")
	store, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	results, err := store.PutAll(paths, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(results), len(paths))
	}
	for i, r := range results {
		if r.Path != paths[i] {
			t.Fatalf("result %d out of order: %s", i, r.Path)
		}
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Digest != want[i] {
			t.Fatalf("result %d digest %s, want %s", i, r.Digest.Short(), want[i].Short())
		}
		if !store.Has(r.Digest) {
			t.Fatalf("object %s missing after PutAll", r.Digest.Short())
		}
	}
	if results[0].Digest != results[8].Digest {
		t.Fatal("identical content produced different digests")
	}
	// 9 files, one duplicate pair → 8 distinct objects, persisted.
	reopened, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if st := reopened.Stats(); st.Objects != 8 {
		t.Fatalf("reopened store has %d objects, want 8", st.Objects)
	}
	if errs := reopened.VerifyAll(); len(errs) != 0 {
		t.Fatalf("corruption after parallel ingest: %v", errs)
	}
}

// TestPutAllPartialFailure: a missing file reports its error but every
// other file still lands in the store.
func TestPutAllPartialFailure(t *testing.T) {
	dir := t.TempDir()
	good1 := writeRandomFile(t, dir, "g1", 5_000, 1)
	good2 := writeRandomFile(t, dir, "g2", 5_000, 2)
	store, err := Open(filepath.Join(dir, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	results, err := store.PutAll([]string{good1, filepath.Join(dir, "missing"), good2}, 2)
	if err == nil {
		t.Fatal("PutAll with a missing file returned nil error")
	}
	if results[1].Err == nil {
		t.Fatal("missing file's result carries no error")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("good file %d failed: %v", i, results[i].Err)
		}
		if !store.Has(results[i].Digest) {
			t.Fatalf("good file %d not stored", i)
		}
	}
	if st := store.Stats(); st.Objects != 2 {
		t.Fatalf("stats report %d objects, want 2", st.Objects)
	}
}

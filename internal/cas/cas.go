// Package cas is a content-addressed artifact store with an action cache:
// the persistence layer behind memoized re-execution. Artifacts are
// identified by the SHA-256 of their bytes (the paper's persistent
// identifiers for intermediate data, and the substrate that makes the gauge
// ontology's input-digest/output-digest terms real); an action cache maps a
// recipe digest — hash of (operation kind, parameters, ordered input
// digests) — to the digests of the outputs that operation produced. A warm
// re-run looks its recipe up, finds the outputs already in the store, and
// skips the work entirely.
//
// On-disk layout under a store root:
//
//	objects/<aa>/<rest-of-hex>   — one file per object, named by digest
//	index.json                   — object metadata (size per digest), snapshot
//	index.json.log               — objects added since that snapshot
//	actions.json                 — the action cache (when co-located), snapshot
//	actions.json.log             — actions recorded since that snapshot
//
// Each metadata file is a snapshot plus an append-only tail (metaLog). A new
// entry — Store.Put, ActionCache.Put — appends one JSON line to the tail and
// fsyncs it, so it is durable when the call returns and costs the same
// however large the store has grown. Open reads the snapshot, then replays
// the tail through the same validation; an unterminated last line is the torn
// write of a crash and is ignored. The snapshot is rewritten, atomically
// (temp file + rename, so a crash never leaves a torn one behind), only at
// the compaction points — Store.GC, PutAll's single batched save,
// ActionCache.Save — each of which then removes the tail it has folded in.
// Entries are idempotent, so a crash between those two steps only replays
// what the snapshot already holds (after a GC it can re-list a removed
// object; the object files are the source of truth — Stats and VerifyAll
// show the stale entry — and the next GC drops it again). Any number of handles may append to one store at a time, each
// seeing its own entries until it reopens; compaction is for one handle
// with no other appender alive.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/appendlog"
	"fairflow/internal/telemetry"
)

// Digest identifies an object: "sha256:<64 hex chars>".
type Digest string

// digestPrefix is the only supported algorithm tag.
const digestPrefix = "sha256:"

// Valid reports whether d is a well-formed sha256 digest. It allocates
// nothing: every object lookup checks it.
func (d Digest) Valid() bool {
	hx, ok := strings.CutPrefix(string(d), digestPrefix)
	if !ok || len(hx) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(hx); i++ {
		switch c := hx[i]; {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'f', 'A' <= c && c <= 'F':
		default:
			return false
		}
	}
	return true
}

// hexPart returns the hex portion of the digest.
func (d Digest) hexPart() string { return strings.TrimPrefix(string(d), digestPrefix) }

// Short returns a 12-character abbreviation for display.
func (d Digest) Short() string {
	hx := d.hexPart()
	if len(hx) > 12 {
		return hx[:12]
	}
	return hx
}

// sumToDigest converts a raw SHA-256 sum to a Digest.
func sumToDigest(sum [sha256.Size]byte) Digest {
	var b [len(digestPrefix) + sha256.Size*2]byte
	copy(b[:], digestPrefix)
	hex.Encode(b[len(digestPrefix):], sum[:])
	return Digest(b[:])
}

// HashBytes digests a byte slice without storing it.
func HashBytes(b []byte) Digest { return sumToDigest(sha256.Sum256(b)) }

// HashReader digests a stream without storing it, returning the byte count.
// It shares the chunked kernel with Put, so the two always agree on what a
// byte stream hashes to.
func HashReader(r io.Reader) (Digest, int64, error) {
	return hashReaderChunked(r)
}

// HashFile digests a file's content without storing it.
func HashFile(path string) (Digest, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return HashReader(f)
}

// Store is an on-disk content-addressed object store. It is safe for
// concurrent use.
type Store struct {
	root    string
	objects string // <root>/objects, cleaned once

	mu  sync.Mutex
	idx *Index

	// fanout[aa] is set once this handle knows objects/<aa> exists and its
	// entry in objects/ is durable, so a put pays for neither again.
	fanout [256]atomic.Bool

	// Telemetry counters (nil when unset — increments are then no-ops).
	// Wire them with SetMetrics before concurrent use.
	mPutBytes     *telemetry.Counter
	mObjectsPut   *telemetry.Counter
	mPutDedup     *telemetry.Counter
	mMaterialized *telemetry.Counter
	mPutSeconds   *telemetry.Histogram
}

// SetMetrics registers the store's instruments in reg and starts feeding
// them: cas.put_bytes_total (bytes streamed through Put), cas.objects_put_total
// (new objects stored), cas.put_dedup_total (Puts satisfied by an existing
// object), cas.materialize_total (Materialize calls that found the object)
// and the cas.put_seconds histogram (one observation per object ingested,
// index append included).
// Call before the store is used concurrently; a nil registry is a no-op.
func (s *Store) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.mPutBytes = reg.Counter("cas.put_bytes_total")
	s.mObjectsPut = reg.Counter("cas.objects_put_total")
	s.mPutDedup = reg.Counter("cas.put_dedup_total")
	s.mMaterialized = reg.Counter("cas.materialize_total")
	s.mPutSeconds = reg.Histogram("cas.put_seconds", nil)
}

// Open opens (creating if necessary) a store rooted at dir.
func Open(dir string) (*Store, error) {
	objects := filepath.Join(dir, "objects")
	if err := os.MkdirAll(objects, 0o755); err != nil {
		return nil, fmt.Errorf("cas: opening store: %w", err)
	}
	idx, err := loadIndex(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, err
	}
	return &Store{root: dir, objects: objects, idx: idx}, nil
}

// objectPath maps a digest to its object file: filepath.Join's result, built
// by one concatenation since the hex part holds no separator to clean.
func (s *Store) objectPath(d Digest) string {
	hx := d.hexPart()
	const sep = string(filepath.Separator)
	return s.objects + sep + hx[:2] + sep + hx[2:]
}

// put streams r into the store, returning the content digest and size. The
// bytes make a single pass through the chunked kernel — hashed *while*
// spooling to a temp file (pooled 1 MiB buffers, no io.Copy allocation, no
// whole-file slurp) — and the temp object is renamed into place, so a
// concurrent reader never observes a partial object; storing bytes that
// already exist is a cheap no-op. Index bookkeeping is optional: PutAll
// workers skip it and batch the index update into one pass + one save at
// the end.
func (s *Store) put(r io.Reader, updateIndex bool) (Digest, int64, error) {
	start := time.Now()
	defer func() { s.mPutSeconds.Observe(time.Since(start).Seconds()) }()
	// Objects are immutable: the read-only mode, set at creation, guards
	// hard-linked materialized copies against accidental in-place truncation.
	tmp, err := appendlog.CreateTemp(s.objects, "put-", 0o444)
	if err != nil {
		return "", 0, err
	}
	tmpName := tmp.Name()
	h := sha256.New()
	n, err := hashCopy(tmp, h, r)
	// The object's bytes must be on stable storage before the rename
	// publishes them: rename-then-crash must never yield a named but empty
	// (or torn) object.
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return "", n, err
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	d := sumToDigest(sum)

	s.mPutBytes.Add(n)
	dst := s.objectPath(d)
	if _, statErr := os.Stat(dst); statErr == nil {
		os.Remove(tmpName) // already stored; content-addressing dedups
		s.mPutDedup.Inc()
	} else {
		place := func() error {
			if err := s.ensureFanout(sum[0], filepath.Dir(dst)); err != nil {
				return err
			}
			return appendlog.Rename(tmpName, dst)
		}
		err := place()
		if errors.Is(err, fs.ErrNotExist) {
			// The fan-out directory was removed behind this handle.
			s.fanout[sum[0]].Store(false)
			err = place()
		}
		if err != nil {
			os.Remove(tmpName)
			return "", n, err
		}
		// Durability of the rename itself: the new directory entry must
		// survive power loss, so fsync the parent directory too.
		if err := appendlog.SyncDir(filepath.Dir(dst)); err != nil {
			return "", n, err
		}
		s.mObjectsPut.Inc()
	}

	if !updateIndex {
		return d, n, nil
	}
	s.mu.Lock()
	err = s.idx.add(d, n)
	s.mu.Unlock()
	return d, n, err
}

// ensureFanout makes objects/<aa> exist with a durable entry in objects/,
// once per handle and directory: the index log is fsynced on every put, so an
// object it lists must not sit under a directory a power loss can take back.
// objects/ is fsynced on the first use even when another handle made the
// directory — that handle may not have reached its own fsync yet.
func (s *Store) ensureFanout(aa byte, dir string) error {
	if s.fanout[aa].Load() {
		return nil
	}
	if err := os.Mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	if err := appendlog.SyncDir(filepath.Dir(dir)); err != nil {
		return err
	}
	s.fanout[aa].Store(true)
	return nil
}

// PutFile stores the named file's content.
func (s *Store) PutFile(path string) (Digest, int64, error) {
	return s.putFile(path, true)
}

// Has reports whether the object exists in the store.
func (s *Store) Has(d Digest) bool {
	if !d.Valid() {
		return false
	}
	_, err := os.Stat(s.objectPath(d))
	return err == nil
}

// Materialize places the object's content at dst: a hard link when the
// filesystem allows it (zero-copy, byte-identical by construction), a full
// copy otherwise. An existing dst is replaced and a missing parent directory
// created. A hard-linked dst shares the store's inode — writers that later
// regenerate dst must remove it first (never truncate in place), which is
// what the paste executor does; objects are stored read-only to catch
// violations.
//
// The link is tried first, and only its failure says which other step is
// due: EEXIST — remove dst and link again; ENOENT — the object is missing
// (the error) or dst's directory is (create it and link again); anything
// else — copy. Restoring into an existing directory, a memo hit's case, is
// therefore one link(2).
func (s *Store) Materialize(d Digest, dst string) error {
	if !d.Valid() {
		return fmt.Errorf("cas: malformed digest %q", d)
	}
	src := s.objectPath(d)
	err := os.Link(src, dst)
	if errors.Is(err, fs.ErrExist) {
		os.Remove(dst)
		err = os.Link(src, dst)
	}
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(src); serr != nil {
			return fmt.Errorf("cas: materialize %s: %w", d.Short(), serr)
		}
		if err = os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		err = os.Link(src, dst)
	}
	s.mMaterialized.Inc()
	if err == nil {
		return nil
	}
	// Cross-device or link-hostile filesystem: copy.
	return copyReplacing(src, dst)
}

// copyReplacing copies src to a temporary file beside dst and renames it
// over dst, so an existing dst — perhaps a hard link into a store, which a
// truncating create would write through — is replaced, never written to.
func copyReplacing(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	tmp, err := os.CreateTemp(filepath.Dir(dst), "."+filepath.Base(dst)+".*")
	if err != nil {
		return err
	}
	_, err = io.Copy(tmp, in)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Verify re-hashes one object and checks it matches its digest.
func (s *Store) Verify(d Digest) error {
	got, _, err := HashFile(s.objectPath(d))
	if err != nil {
		return fmt.Errorf("cas: verify %s: %w", d.Short(), err)
	}
	if got != d {
		return fmt.Errorf("cas: object %s is corrupt (content hashes to %s)", d.Short(), got.Short())
	}
	return nil
}

// VerifyAll re-hashes every indexed object, returning all corruption errors.
func (s *Store) VerifyAll() []error {
	var errs []error
	for _, d := range s.Digests() {
		if err := s.Verify(d); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// Digests lists every indexed object in sorted order.
func (s *Store) Digests() []Digest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Digest, 0, len(s.idx.Objects))
	for hx := range s.idx.Objects {
		out = append(out, Digest(digestPrefix+hx))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarises the store.
type Stats struct {
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
}

// Stats returns object count and total payload bytes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Objects: len(s.idx.Objects)}
	for _, o := range s.idx.Objects {
		st.Bytes += o.Size
	}
	return st
}

// GC removes every object not referenced by the live set (the ref-counting
// sweep: liveness flows from live manifests — action-cache entries — down to
// objects). It returns the number of objects removed and the bytes freed.
// GC is a compaction point: it rewrites the index snapshot whenever it
// removed something or the log has entries to fold in.
func (s *Store) GC(live map[Digest]bool) (removed int, freed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for hx, obj := range s.idx.Objects {
		d := Digest(digestPrefix + hx)
		if live[d] {
			continue
		}
		if rmErr := os.Remove(s.objectPath(d)); rmErr != nil && !os.IsNotExist(rmErr) {
			err = rmErr
			continue
		}
		delete(s.idx.Objects, hx)
		removed++
		freed += obj.Size
	}
	if removed > 0 || s.idx.log.n > 0 {
		if serr := s.idx.save(); err == nil {
			err = serr
		}
	}
	return removed, freed, err
}

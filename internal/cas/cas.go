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
//	actions.json                 — the action cache (when co-located), snapshot
//	actions.json.log             — actions recorded since that snapshot
//
// The object files are the store's only record of what it holds: Stats,
// VerifyAll and GC list the 256 fan-out directories, and Open reads nothing. An object is published by a hard link that never replaces what is
// there, so any number of handles, in one process or several, may put into
// one store at a time.
//
// The action cache is a snapshot plus an append-only tail (metaLog). A new
// entry appends one JSON line to the tail and fsyncs it, so it is durable
// when ActionCache.Put returns and costs the same however large the cache
// has grown. OpenActionCache reads the snapshot, then replays the tail
// through the same validation; an unterminated last line is the torn write
// of a crash and is ignored. ActionCache.Save rewrites the snapshot
// atomically (temp file + rename) and then removes the tail it has folded
// in. Entries are idempotent, so a crash between those two steps only
// replays what the snapshot already holds. Compaction — Save, and GC, which
// also sweeps the temps of puts that died — is for one handle with no other
// appender alive. The index.json and index.json.log files of stores written
// before the object files became the record are ignored.
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
	"strings"
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
// It shares the chunked kernel and its pooled buffer with Put, so the two
// agree on what a byte stream hashes to (TestHashFilePutAgreeMultiChunk).
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
// concurrent use, and holds no descriptor between calls: a put opens its
// fan-out directory and closes it before it returns.
type Store struct {
	objects string // <root>/objects, cleaned once

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
// source read to directory fsync).
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
	return &Store{objects: objects}, nil
}

// objectPath maps a digest to its object file: filepath.Join's result, built
// by one concatenation since the hex part holds no separator to clean.
func (s *Store) objectPath(d Digest) string {
	hx := d.hexPart()
	const sep = string(filepath.Separator)
	return s.objects + sep + hx[:2] + sep + hx[2:]
}

// put stores r's bytes, returning their digest and size. The first chunk is
// read and hashed before anything is written. A source that ends inside it —
// every memo output up to 1 MiB — therefore has its object written where it
// will live, through one descriptor on objects/<aa>: a read-only temp is
// created, written and fsynced, linked to the object's name and unlinked,
// and the directory is fsynced when it gained the entry. A longer source
// streams into a temp in objects/, hashed while it spools, and is linked
// into its fan-out directory the same way. The link never replaces a file,
// so a reader never sees a partial object, and its EEXIST is how a put of
// bytes already stored finds out: a dedup, with no stat first.
func (s *Store) put(r io.Reader) (Digest, int64, error) {
	start := time.Now()
	defer func() { s.mPutSeconds.Observe(time.Since(start).Seconds()) }()
	bufp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bufp)
	buf := *bufp
	n, err := io.ReadFull(r, buf)
	var sum [sha256.Size]byte
	size, spooled := int64(n), ""
	switch err {
	case io.EOF, io.ErrUnexpectedEOF:
		sum = sha256.Sum256(buf[:n])
	case nil:
		if sum, size, spooled, err = s.spool(buf, r); err != nil {
			return "", size, err
		}
	default:
		return "", size, err
	}
	d := sumToDigest(sum)
	s.mPutBytes.Add(size)
	stored, err := s.place(sum[0], d, buf[:n], spooled)
	if spooled != "" && err != nil {
		os.Remove(spooled)
	}
	if err != nil {
		return "", size, err
	}
	if stored {
		s.mObjectsPut.Inc()
	} else {
		s.mPutDedup.Inc()
	}
	return d, size, nil
}

// spool writes a source longer than one chunk — buf, already read from r,
// then the rest of r — to a fsynced temp in objects/, hashing it on the way.
// It returns the sum, the size and the temp's path.
func (s *Store) spool(buf []byte, r io.Reader) (sum [sha256.Size]byte, size int64, path string, err error) {
	tmp, err := appendlog.CreateTemp(s.objects, "put-", 0o444)
	if err != nil {
		return sum, 0, "", err
	}
	h := sha256.New()
	h.Write(buf)
	_, err = tmp.Write(buf)
	size = int64(len(buf))
	if err == nil {
		var n int64
		n, err = hashCopy(tmp, h, r, buf)
		size += n
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return sum, size, "", err
	}
	h.Sum(sum[:0])
	return sum, size, tmp.Name(), nil
}

// place publishes object d, whose first byte is aa, through one descriptor
// on its fan-out directory: the temp at spooled when a large source was
// spooled, or else a new temp holding data, created there. It reports
// whether the object is new. The temp is fsynced before the link publishes
// it, and the directory after, so a put that returned survives a power loss.
func (s *Store) place(aa byte, d Digest, data []byte, spooled string) (stored bool, err error) {
	hx := d.hexPart()
	dir, err := s.openFanout(aa, s.objects+string(filepath.Separator)+hx[:2])
	if err != nil {
		return false, err
	}
	tmp := ""
	if spooled != "" {
		tmp = ".." + string(filepath.Separator) + filepath.Base(spooled)
	} else {
		tmp, err = writeTemp(dir, data)
	}
	if err == nil {
		stored, err = publish(dir, tmp, hx[2:])
		dir.Remove(tmp) // a temp left behind is not an object, and GC sweeps it
	}
	if err == nil && stored {
		err = dir.Sync()
	}
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return stored, err
}

// writeTemp writes data to a new temp in dir and fsyncs it, returning its
// name. Objects are immutable: the read-only mode, set at creation here and
// in spool, guards hard-linked materialized copies against accidental
// in-place truncation.
func writeTemp(dir *appendlog.Dir, data []byte) (string, error) {
	f, err := dir.CreateTemp("put-", 0o444)
	if err != nil {
		return "", err
	}
	name := filepath.Base(f.Name())
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		dir.Remove(name)
		return "", err
	}
	return name, nil
}

// publish gives the temp tmp in dir the object's name, reporting whether
// the object is new: a hard link, whose EEXIST says the object is already
// stored. A filesystem that refuses hard links gets a stat of the name and,
// when nothing is there, the temp renamed onto it.
func publish(dir *appendlog.Dir, tmp, name string) (stored bool, err error) {
	err = dir.Link(tmp, name)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, fs.ErrExist):
		return false, nil
	case errors.Is(err, fs.ErrPermission), errors.Is(err, errors.ErrUnsupported):
		dst := filepath.Join(dir.Name(), name)
		if _, serr := os.Stat(dst); serr == nil {
			return false, nil
		}
		return true, appendlog.Rename(filepath.Join(dir.Name(), tmp), dst)
	}
	return false, err
}

// openFanout opens objects/<aa> (at path), making it on this handle's first
// use of it: mkdir, then an fsync of objects/, so the entry survives a power
// loss before any object under it does. objects/ is fsynced on the first use
// even when another handle made the directory — that handle may not have
// reached its own fsync yet. A directory removed behind this handle is made
// again.
func (s *Store) openFanout(aa byte, path string) (*appendlog.Dir, error) {
	for retried := false; ; retried = true {
		if !s.fanout[aa].Load() {
			if err := appendlog.Mkdir(path, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
				return nil, err
			}
			if err := appendlog.SyncDir(s.objects); err != nil {
				return nil, err
			}
			s.fanout[aa].Store(true)
		}
		dir, err := appendlog.OpenDir(path)
		if errors.Is(err, fs.ErrNotExist) && !retried {
			s.fanout[aa].Store(false)
			continue
		}
		return dir, err
	}
}

// PutFile stores the named file's content.
func (s *Store) PutFile(path string) (Digest, int64, error) {
	f, err := appendlog.Open(path, os.O_RDONLY, 0)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return s.put(f)
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
	err := appendlog.Link(src, dst)
	if errors.Is(err, fs.ErrExist) {
		os.Remove(dst)
		err = appendlog.Link(src, dst)
	}
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(src); serr != nil {
			return fmt.Errorf("cas: materialize %s: %w", d.Short(), serr)
		}
		if err = os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		err = appendlog.Link(src, dst)
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

// VerifyAll re-hashes every object, returning all corruption errors and any
// error listing the store.
func (s *Store) VerifyAll() []error {
	var errs []error
	if err := s.walk(func(_ string, d Digest, _ fs.DirEntry) {
		if d != "" {
			if err := s.Verify(d); err != nil {
				errs = append(errs, err)
			}
		}
	}); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// Stats summarises the store.
type Stats struct {
	Objects int   `json:"objects"`
	Bytes   int64 `json:"bytes"`
}

// Stats returns object count and total payload bytes.
func (s *Store) Stats() Stats {
	var st Stats
	s.walk(func(_ string, d Digest, e fs.DirEntry) {
		if d != "" {
			st.Objects++
			if info, err := e.Info(); err == nil {
				st.Bytes += info.Size()
			}
		}
	})
	return st
}

// GC removes every object not referenced by the live set (the ref-counting
// sweep: liveness flows from live manifests — action-cache entries — down to
// objects), and the temps of puts that died. It returns the number of
// objects removed and the bytes they freed; temps are not counted. GC is a
// compaction point: no other handle may be putting into the store, or GC
// takes its temp away.
func (s *Store) GC(live map[Digest]bool) (removed int, freed int64, err error) {
	werr := s.walk(func(path string, d Digest, e fs.DirEntry) {
		if live[d] {
			return
		}
		info, ierr := e.Info()
		if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			err = rmErr
			return
		}
		if d != "" {
			removed++
			if ierr == nil {
				freed += info.Size()
			}
		}
	})
	if err == nil {
		err = werr
	}
	return removed, freed, err
}

// walk calls fn for every object under objects/, in digest order, with its
// path, digest and directory entry — a name in a fan-out directory
// objects/<aa> that is the other 62 hex digits of a digest — and with an
// empty digest for every put-* temp, in objects/ or a fan-out directory,
// that a put left behind when it died. Other names are skipped.
func (s *Store) walk(fn func(path string, d Digest, e fs.DirEntry)) error {
	fans, err := os.ReadDir(s.objects)
	if err != nil {
		return err
	}
	const sep = string(filepath.Separator)
	var firstErr error
	for _, fan := range fans {
		aa := fan.Name()
		if strings.HasPrefix(aa, "put-") {
			fn(s.objects+sep+aa, "", fan)
			continue
		}
		if len(aa) != 2 || !fan.IsDir() {
			continue
		}
		ents, err := os.ReadDir(s.objects + sep + aa)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		for _, e := range ents {
			name := e.Name()
			d := Digest(digestPrefix + aa + name)
			switch {
			case strings.HasPrefix(name, "put-"):
				fn(s.objects+sep+aa+sep+name, "", e)
			case len(name) == sha256.Size*2-2 && d.Valid():
				fn(s.objects+sep+aa+sep+name, d, e)
			}
		}
	}
	return firstErr
}

package cas

import (
	"crypto/sha256"
	"hash"
	"io"
	"os"
	"sync"

	"fairflow/internal/appendlog"
)

// The chunked kernel is the single byte-moving core under every hashing and
// ingestion path in the package: Put, PutFile, PutAll, HashReader, HashFile
// and Verify all pump bytes through hashCopy. One pass, one pooled buffer —
// a multi-GB artifact is hashed (and simultaneously spooled to its temp
// object) without ever being whole in memory, and without io.Copy's
// per-call 32 KiB allocation.

// chunkSize is the pooled transfer-buffer size. Large enough that syscall
// and hash-setup overhead amortise to noise against sha256 throughput;
// small enough that a pool of them is cheap to keep warm across a
// many-file ingestion burst.
const chunkSize = 1024 * 1024

var chunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, chunkSize)
		return &b
	},
}

// hashCopy streams src through h in chunkSize reads, mirroring each chunk
// to dst when dst is non-nil (the ingestion path: hash while spooling, not
// after). It returns the byte count.
func hashCopy(dst io.Writer, h hash.Hash, src io.Reader) (int64, error) {
	bufp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bufp)
	buf := *bufp
	var n int64
	for {
		r, rerr := src.Read(buf)
		if r > 0 {
			n += int64(r)
			// hash.Hash.Write never returns an error.
			h.Write(buf[:r])
			if dst != nil {
				if w, werr := dst.Write(buf[:r]); werr != nil {
					return n, werr
				} else if w < r {
					return n, io.ErrShortWrite
				}
			}
		}
		if rerr == io.EOF {
			return n, nil
		}
		if rerr != nil {
			return n, rerr
		}
	}
}

// hashReaderChunked digests a stream through the chunked kernel.
func hashReaderChunked(r io.Reader) (Digest, int64, error) {
	h := sha256.New()
	n, err := hashCopy(nil, h, r)
	if err != nil {
		return "", n, err
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sumToDigest(sum), n, nil
}

// PutResult is one file's ingestion outcome from PutAll.
type PutResult struct {
	Path   string
	Digest Digest
	Size   int64
	Err    error
}

// PutAll ingests a set of files concurrently with at most workers in
// flight, the shape of storing a run's whole output set after a campaign
// step. Each file streams through the chunked hash-while-spooling kernel
// exactly as PutFile does, but index bookkeeping is batched: workers only
// ingest object bytes, and the index is updated and persisted once at the
// end — one snapshot write that also compacts the log — instead of one
// fsynced log line per file under the store mutex, the serial step a
// parallel ingest would otherwise queue on.
//
// Results are returned in input order. The first error (if any) is also
// returned, but every file is attempted regardless.
func (s *Store) PutAll(paths []string, workers int) ([]PutResult, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	results := make([]PutResult, len(paths))
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				d, n, err := s.putFile(paths[i], false)
				results[i] = PutResult{Path: paths[i], Digest: d, Size: n, Err: err}
			}
		}()
	}
	for i := range paths {
		next <- i
	}
	close(next)
	wg.Wait()

	// One index pass, one save (a compaction point). A failed save takes the
	// new entries back out, as a failed Put does: an entry left in memory
	// would make the next Put of that object skip the log.
	s.mu.Lock()
	var added []Digest
	for _, r := range results {
		if r.Err == nil && s.idx.set(r.Digest, r.Size) {
			added = append(added, r.Digest)
		}
	}
	var serr error
	if len(added) > 0 {
		if serr = s.idx.save(); serr != nil {
			for _, d := range added {
				delete(s.idx.Objects, d.hexPart())
			}
		}
	}
	s.mu.Unlock()

	var firstErr error
	for _, r := range results {
		if r.Err != nil {
			firstErr = r.Err
			break
		}
	}
	if firstErr == nil {
		firstErr = serr
	}
	return results, firstErr
}

// putFile ingests one file's bytes, optionally updating the index (PutAll
// defers that to a single batched pass).
func (s *Store) putFile(path string, updateIndex bool) (Digest, int64, error) {
	f, err := appendlog.Open(path, os.O_RDONLY, 0)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	return s.put(f, updateIndex)
}

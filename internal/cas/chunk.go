package cas

import (
	"crypto/sha256"
	"hash"
	"io"
	"sync"
)

// The chunked kernel is the single byte-moving core under every hashing and
// ingestion path in the package: HashReader, HashFile and Verify pump bytes
// through hashCopy, and a put reads its first chunk into the same pooled
// buffer — hashing it in one call when the source ends there, and spooling
// the rest through hashCopy when it does not. One pass, one pooled buffer —
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

// hashCopy streams src through h in reads of len(buf), mirroring each chunk
// to dst when dst is non-nil (the ingestion path: hash while spooling, not
// after). It returns the byte count.
func hashCopy(dst io.Writer, h hash.Hash, src io.Reader, buf []byte) (int64, error) {
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
	bufp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bufp)
	h := sha256.New()
	n, err := hashCopy(nil, h, r, *bufp)
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
// step. Each file is stored exactly as PutFile stores it; the workers
// overlap one another's fsync waits and, on a multi-core host, their
// hashing.
//
// Results are returned in input order. The first error (if any) is also
// returned, but every file is attempted regardless.
func (s *Store) PutAll(paths []string, workers int) ([]PutResult, error) {
	workers = min(max(workers, 1), len(paths))
	results := make([]PutResult, len(paths))
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				d, n, err := s.PutFile(paths[i])
				results[i] = PutResult{Path: paths[i], Digest: d, Size: n, Err: err}
			}
		}()
	}
	for i := range paths {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, r := range results {
		if r.Err != nil {
			return results, r.Err
		}
	}
	return results, nil
}

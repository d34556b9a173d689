package tabular

import (
	"bufio"
	"io"
	"sync"
)

// The paste kernel is the byte-level streaming core under Paste and
// CountRows. It never converts row data to strings: lines move as
// []byte slices straight from a pooled read buffer into a pooled write
// buffer, so the per-row cost is a memmove, not an allocation. Buffers are
// recycled through sync.Pools because a multi-phase paste plan opens and
// closes thousands of readers and writers over its lifetime.

const (
	// kernelReadBuf is the per-source read-buffer size. Lines longer than
	// this still work: lineReader falls back to an amortised scratch buffer.
	kernelReadBuf = 128 * 1024
	// kernelWriteBuf is the output buffer size; paste output rows are the
	// concatenation of one line per source, so the writer buffer is larger
	// than the reader buffer.
	kernelWriteBuf = 256 * 1024
)

var readerPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, kernelReadBuf) },
}

var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, kernelWriteBuf) },
}

// getReader leases a pooled bufio.Reader reset onto r.
func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putReader returns a leased reader to the pool, dropping its source.
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// getWriter leases a pooled bufio.Writer reset onto w.
func getWriter(w io.Writer) *bufio.Writer {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putWriter returns a leased writer to the pool. The caller must have
// flushed; Reset discards any buffered bytes.
func putWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	writerPool.Put(bw)
}

// lineReader yields newline-delimited lines as []byte views into a pooled
// bufio.Reader's buffer. The slice returned by next is valid only until the
// following next call on the same lineReader — callers must consume it
// (write it out) before advancing, which is exactly the paste loop's shape.
type lineReader struct {
	br *bufio.Reader
	// long accumulates lines that exceed the bufio buffer. It is retained
	// across rows, so a file full of long lines allocates once, not per row.
	long []byte
}

// next returns the next line with its trailing newline (and any preceding
// carriage return) removed. ok is false at clean EOF; a final unterminated
// line is returned as a normal line (bufio.Scanner semantics, which the
// previous Scanner-based implementation exposed and tests rely on).
func (lr *lineReader) next() (line []byte, ok bool, err error) {
	frag, err := lr.br.ReadSlice('\n')
	if err == nil {
		return trimEOL(frag), true, nil
	}
	if err == io.EOF {
		if len(frag) == 0 {
			return nil, false, nil
		}
		return trimEOL(frag), true, nil
	}
	if err != bufio.ErrBufferFull {
		return nil, false, err
	}
	// Long-line path: the line did not fit in the read buffer. Accumulate
	// fragments in the scratch buffer until the newline (or EOF) shows up.
	lr.long = append(lr.long[:0], frag...)
	for {
		frag, err = lr.br.ReadSlice('\n')
		lr.long = append(lr.long, frag...)
		switch err {
		case nil, io.EOF:
			return trimEOL(lr.long), true, nil
		case bufio.ErrBufferFull:
			continue
		default:
			return nil, false, err
		}
	}
}

// trimEOL strips one trailing "\n" or "\r\n" (matching bufio.ScanLines).
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n := len(b); n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
	}
	return b
}

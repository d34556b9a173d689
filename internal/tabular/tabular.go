// Package tabular is a streaming engine for delimited text tables: readers,
// writers, and the column-wise paste operation at the centre of the paper's
// GWAS data-wrangling scenario (Section V-A). Large genotype matrices arrive
// as many per-sample column files; assembling the model input means pasting
// thousands of columns side by side — the step the paper automates with a
// Skel/Cheetah-generated two-phase plan.
package tabular

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Options configures paste behaviour.
type Options struct {
	// Delimiter joins columns; defaults to tab (matching UNIX paste).
	Delimiter string
	// AllowRagged permits inputs with differing row counts; missing cells
	// are emitted empty. When false (the default), ragged inputs are an
	// error — silent misalignment is exactly the kind of bug the paper's
	// under-engineered wrangling scripts suffer.
	AllowRagged bool
	// BlockSize tunes the columnar fast path's transfer-block size in bytes
	// (see fastpath.go): 0 selects the default (128 KiB), a negative value
	// disables the fast path entirely (every row goes through the
	// line-splitting kernel), and positive values are clamped to
	// [4 KiB, 1 MiB]. Output bytes are identical on every path — this knob
	// never changes results, only how they are produced — so it is
	// deliberately excluded from action-cache recipes.
	BlockSize int
}

func (o Options) delimiter() string {
	if o.Delimiter == "" {
		return "\t"
	}
	return o.Delimiter
}

// blockSize resolves the effective fast-path block size; 0 disables.
func (o Options) blockSize() int {
	switch {
	case o.BlockSize < 0:
		return 0
	case o.BlockSize == 0:
		return defaultBlockSize
	case o.BlockSize < minBlockSize:
		return minBlockSize
	case o.BlockSize > maxBlockSize:
		return maxBlockSize
	}
	return o.BlockSize
}

// Paste writes the column-wise concatenation of the src readers to dst:
// output line i is the join of line i of every source, in order. It returns
// the number of rows written.
//
// Inputs whose rows are verified-regular (uniform byte width, LF-terminated)
// move through the columnar fast path: whole blocks are sliced at fixed
// strides with no per-line scanning, falling back to the line-splitting
// kernel at the first irregularity (see fastpath.go). The kernel itself is
// the zero-allocation loop: each source's line is copied as a []byte slice
// straight from its pooled read buffer into the pooled output buffer, with
// no per-row string materialisation. Output bytes are identical on both
// paths.
func Paste(dst io.Writer, opts Options, srcs ...io.Reader) (int, error) {
	return paste(dst, opts, opts.blockSize(), srcs)
}

// paste is Paste with the resolved block size explicit (0 = line kernel
// only), so equivalence tests can force boundary-hostile block sizes the
// public clamp would reject.
func paste(dst io.Writer, opts Options, blockSize int, srcs []io.Reader) (int, error) {
	if len(srcs) == 0 {
		return 0, fmt.Errorf("tabular: paste needs at least one source")
	}
	w := getWriter(dst)
	defer putWriter(w)
	rows := 0
	if bs := blockSize; bs > 0 {
		var done bool
		var err error
		rows, srcs, done, err = fastPaste(w, opts, bs, srcs)
		if err != nil {
			return rows, err
		}
		if done {
			return rows, w.Flush()
		}
		// srcs now holds each source's unconsumed remainder; the line
		// kernel picks up exactly where the fast path stopped.
	}
	rows, err := pasteLines(w, opts, srcs, rows)
	if err != nil {
		return rows, err
	}
	return rows, w.Flush()
}

// pasteLines is the line-splitting kernel: it streams every source through
// a pooled lineReader and joins line i of each source, starting the output
// row count at startRows (non-zero when the columnar fast path already
// emitted a prefix).
func pasteLines(w *bufio.Writer, opts Options, srcs []io.Reader, startRows int) (int, error) {
	delim := opts.delimiter()
	readers := make([]lineReader, len(srcs))
	for i, r := range srcs {
		readers[i].br = getReader(r)
	}
	defer func() {
		for i := range readers {
			if readers[i].br != nil {
				putReader(readers[i].br)
				readers[i].br = nil
			}
		}
	}()
	// lines[i] views into reader i's buffer and stays valid until that
	// reader's next advance — i.e. for exactly one row, which is all the
	// write-out below needs. Both slices are reused for every row.
	lines := make([][]byte, len(srcs))
	rows := startRows
	for {
		anyLive := false
		allLive := true
		for i := range readers {
			lines[i] = nil
			if readers[i].br == nil {
				allLive = false
				continue
			}
			line, ok, err := readers[i].next()
			if err != nil {
				return rows, fmt.Errorf("tabular: reading source %d: %w", i, err)
			}
			if !ok {
				putReader(readers[i].br)
				readers[i].br = nil
				allLive = false
				continue
			}
			anyLive = true
			lines[i] = line
		}
		if !anyLive {
			break
		}
		if !allLive && !opts.AllowRagged {
			return rows, fmt.Errorf("tabular: sources have differing row counts at row %d", rows)
		}
		for i, line := range lines {
			if i > 0 {
				if _, err := w.WriteString(delim); err != nil {
					return rows, err
				}
			}
			if _, err := w.Write(line); err != nil {
				return rows, err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return rows, err
		}
		rows++
	}
	return rows, nil
}

// PasteFiles pastes the named source files into dstPath.
func PasteFiles(dstPath string, opts Options, srcPaths ...string) (int, error) {
	if len(srcPaths) == 0 {
		return 0, fmt.Errorf("tabular: paste needs at least one source file")
	}
	readers := make([]io.Reader, 0, len(srcPaths))
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range srcPaths {
		f, err := os.Open(p)
		if err != nil {
			return 0, err
		}
		files = append(files, f)
		readers = append(readers, f)
	}
	if err := os.MkdirAll(filepath.Dir(dstPath), 0o755); err != nil {
		return 0, err
	}
	out, err := os.Create(dstPath)
	if err != nil {
		return 0, err
	}
	rows, perr := Paste(out, opts, readers...)
	if cerr := out.Close(); perr == nil {
		perr = cerr
	}
	return rows, perr
}

// CountRows counts newline-terminated rows in a file (a final unterminated
// line counts as a row, matching bufio.Scanner semantics). It counts bytes
// through a pooled buffer without materialising lines.
func CountRows(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := getReader(f)
	defer putReader(br)
	n := 0
	lastNewline := true
	for {
		chunk, err := br.ReadSlice('\n')
		if len(chunk) > 0 {
			lastNewline = chunk[len(chunk)-1] == '\n'
			if lastNewline {
				n++
			}
		}
		switch err {
		case nil, bufio.ErrBufferFull:
			continue
		case io.EOF:
			if !lastNewline {
				n++ // final unterminated line
			}
			return n, nil
		default:
			return n, err
		}
	}
}

// CountColumns returns the number of delimiter-separated fields on the first
// row of a file (0 for an empty file). It reads through the pooled
// lineReader, so a first row of any length works — the kernel's amortised
// long-line scratch replaces the bounded Scanner buffer that used to fail
// rows past its cap with bufio.ErrTooLong.
func CountColumns(path string, opts Options) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := getReader(f)
	defer putReader(br)
	lr := lineReader{br: br}
	line, ok, err := lr.next()
	if err != nil || !ok {
		return 0, err
	}
	return bytes.Count(line, []byte(opts.delimiter())) + 1, nil
}

// WriteColumn writes a single-column file with the given cell values.
func WriteColumn(path string, cells []string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, c := range cells {
		if _, err := w.WriteString(c); err != nil {
			f.Close()
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteColumnBytes writes a pre-rendered single-column file in one call —
// the zero-copy companion to WriteColumn for callers (like the GWAS cohort
// writer) that can render a whole column into one []byte.
func WriteColumnBytes(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

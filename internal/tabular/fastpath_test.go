package tabular

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// pasteBoth runs the same sources through the columnar fast path (at the
// given block size) and through the line kernel alone, returning both
// outcomes for equivalence checks.
func pasteBoth(t testing.TB, opts Options, blockSize int, srcs ...[]byte) (fastOut, slowOut []byte, fastRows, slowRows int, fastErr, slowErr error) {
	t.Helper()
	mk := func(inputs [][]byte) []io.Reader {
		rs := make([]io.Reader, len(inputs))
		for i, b := range inputs {
			rs[i] = bytes.NewReader(b)
		}
		return rs
	}
	var fb, sb bytes.Buffer
	fastRows, fastErr = paste(&fb, opts, blockSize, mk(srcs))
	slowRows, slowErr = paste(&sb, opts, 0, mk(srcs))
	return fb.Bytes(), sb.Bytes(), fastRows, slowRows, fastErr, slowErr
}

// requireEquivalent asserts the fast path's contract: byte-identical
// output, identical row counts, identical error presence.
func requireEquivalent(t testing.TB, opts Options, blockSize int, srcs ...[]byte) {
	t.Helper()
	fastOut, slowOut, fastRows, slowRows, fastErr, slowErr := pasteBoth(t, opts, blockSize, srcs...)
	if (fastErr == nil) != (slowErr == nil) {
		t.Fatalf("error divergence: fast=%v slow=%v", fastErr, slowErr)
	}
	if fastErr != nil {
		return // both failed; partial output is unspecified
	}
	if fastRows != slowRows {
		t.Fatalf("row divergence: fast=%d slow=%d", fastRows, slowRows)
	}
	if !bytes.Equal(fastOut, slowOut) {
		t.Fatalf("output divergence (rows=%d)\nfast: %q\nslow: %q", fastRows, fastOut, slowOut)
	}
}

// TestFastPathRegularInputs covers the happy path: uniform-width columns of
// assorted widths, block sizes chosen to land refills mid-row and mid-block.
func TestFastPathRegularInputs(t *testing.T) {
	col := func(cell string, rows int) []byte {
		var b bytes.Buffer
		for i := 0; i < rows; i++ {
			b.WriteString(cell)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	cases := []struct {
		name      string
		blockSize int
		srcs      [][]byte
	}{
		{"single-source", 64, [][]byte{col("0.123", 500)}},
		{"three-uniform", 64, [][]byte{col("A", 300), col("BB", 300), col("CCC", 300)}},
		{"empty-width-rows", 32, [][]byte{col("", 100), col("x", 100)}},
		{"block-equals-row", 8, [][]byte{col("1234567", 64)}}, // stride == blockSize
		{"row-larger-than-block", 8, [][]byte{col(strings.Repeat("g", 40), 20)}},
		{"default-block", 0, nil}, // filled below
	}
	cases[len(cases)-1].srcs = [][]byte{col("0", 10_000), col("22", 10_000)}
	cases[len(cases)-1].blockSize = defaultBlockSize
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			requireEquivalent(t, Options{}, tc.blockSize, tc.srcs...)
			requireEquivalent(t, Options{Delimiter: ","}, tc.blockSize, tc.srcs...)
		})
	}
}

// TestFastPathIrregularInputs covers every fallback trigger: CRLF rows,
// width changes mid-stream, ragged sources, unterminated tails, empty
// sources — all must produce the line kernel's exact bytes.
func TestFastPathIrregularInputs(t *testing.T) {
	cases := []struct {
		name string
		srcs []string
	}{
		{"crlf-throughout", []string{"a\r\nb\r\nc\r\n", "1\r\n2\r\n3\r\n"}},
		{"crlf-after-prefix", []string{"a\nb\nc\r\nd\n", "1\n2\n3\n4\n"}},
		{"width-change", []string{"aa\nbb\nccc\ndd\n", "11\n22\n33\n44\n"}},
		{"unterminated-tail", []string{"a\nb\nc", "1\n2\n3"}},
		{"short-final-line", []string{"aaa\nbbb\nc\n", "111\n222\n333\n"}},
		{"ragged-lengths", []string{"a\nb\nc\nd\n", "1\n2\n"}},
		{"one-empty-source", []string{"a\nb\n", ""}},
		{"all-empty", []string{"", ""}},
		{"single-unterminated", []string{"solo"}},
		{"blank-lines-mixed", []string{"\n\nx\n\n", "1\n2\n3\n4\n"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcs := make([][]byte, len(tc.srcs))
			for i, s := range tc.srcs {
				srcs[i] = []byte(s)
			}
			for _, bs := range []int{4, 16, 4096} {
				for _, ragged := range []bool{false, true} {
					requireEquivalent(t, Options{AllowRagged: ragged}, bs, srcs...)
				}
			}
		})
	}
}

// TestFastPathDisabled pins the BlockSize<0 escape hatch: output equals the
// default path's on a regular input.
func TestFastPathDisabled(t *testing.T) {
	src := bytes.Repeat([]byte("row\n"), 1000)
	var off, on bytes.Buffer
	rowsOff, err := Paste(&off, Options{BlockSize: -1}, bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	rowsOn, err := Paste(&on, Options{}, bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if rowsOff != rowsOn || !bytes.Equal(off.Bytes(), on.Bytes()) {
		t.Fatalf("BlockSize=-1 diverges: %d vs %d rows", rowsOff, rowsOn)
	}
}

// FuzzPasteFastPathEquivalence is the satellite's equivalence fuzz: for
// arbitrary source bytes, delimiter, raggedness and block size, the
// columnar fast path and the line-splitting kernel must produce
// byte-identical output, identical row counts and identical error
// presence. Seeds cover CRLF, ragged, unterminated and regular inputs.
func FuzzPasteFastPathEquivalence(f *testing.F) {
	f.Add([]byte("a\nb\nc\n"), []byte("1\n2\n3\n"), byte('\t'), false, uint16(16))
	f.Add([]byte("aa\r\nbb\r\n"), []byte("1\n2\n"), byte(','), false, uint16(8))
	f.Add([]byte("x\ny\n"), []byte("1\n2\n3\n4\n"), byte('\t'), true, uint16(4))
	f.Add([]byte("unterminated"), []byte(""), byte(';'), true, uint16(32))
	f.Add([]byte("\n\n\n"), []byte("w\nww\n"), byte('|'), false, uint16(5))
	f.Add(bytes.Repeat([]byte("0.5\n"), 500), bytes.Repeat([]byte("1.5\n"), 500), byte('\t'), false, uint16(64))
	f.Fuzz(func(t *testing.T, a, b []byte, delim byte, ragged bool, block uint16) {
		opts := Options{Delimiter: string(rune(delim)), AllowRagged: ragged}
		blockSize := int(block)%4096 + 1 // 1..4096, hostile to every boundary
		requireEquivalent(t, opts, blockSize, a, b)
		requireEquivalent(t, opts, blockSize, a)
	})
}

// TestCountColumnsAndReadAllLongLines is the >64 KiB-line regression: both
// helpers used to cap line length via bufio.Scanner limits while
// Paste/CountRows handled arbitrary lengths. Routed through the pooled
// lineReader they must agree with the paste path on a 300 KiB row (larger
// than the kernel's 128 KiB read buffer, forcing the long-line scratch).
func TestCountColumnsAndReadAllLongLines(t *testing.T) {
	dir := t.TempDir()
	wide := strings.Repeat("g", 300*1024) // one cell wider than kernelReadBuf
	path := dir + "/wide.tsv"
	content := wide + "\t" + wide + "\nshort\tcells\n"
	if err := WriteColumnBytes(path, []byte(content)); err != nil {
		t.Fatal(err)
	}
	cols, err := CountColumns(path, Options{})
	if err != nil {
		t.Fatalf("CountColumns on >64KiB line: %v", err)
	}
	if cols != 2 {
		t.Fatalf("CountColumns = %d, want 2", cols)
	}
	rows, err := readAll(path, Options{})
	if err != nil {
		t.Fatalf("ReadAll on >64KiB line: %v", err)
	}
	if len(rows) != 2 || len(rows[0]) != 2 || rows[0][0] != wide || rows[1][1] != "cells" {
		t.Fatalf("ReadAll misparsed wide row: %d rows", len(rows))
	}
	// And the paste path itself still round-trips the wide file.
	var out bytes.Buffer
	n, err := Paste(&out, Options{}, strings.NewReader(content))
	if err != nil || n != 2 {
		t.Fatalf("Paste wide: rows=%d err=%v", n, err)
	}
	if out.String() != content {
		t.Fatal("paste of wide file is not byte-identical")
	}
}

// TestFastPathErrorAttribution pins that a mid-stream read error surfaces
// with the failing source's index, matching the kernel's message shape.
func TestFastPathErrorAttribution(t *testing.T) {
	boom := fmt.Errorf("disk on fire")
	bad := io.MultiReader(bytes.NewReader(bytes.Repeat([]byte("x\n"), 10)), &errReader{err: boom})
	good := bytes.NewReader(bytes.Repeat([]byte("y\n"), 100))
	var out bytes.Buffer
	_, err := paste(&out, Options{}, 8, []io.Reader{good, bad})
	if err == nil || !strings.Contains(err.Error(), "source 1") {
		t.Fatalf("error = %v, want attribution to source 1", err)
	}
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

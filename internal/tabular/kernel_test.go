package tabular

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestLineReaderSmallBuffer white-boxes the long-line fallback: with a
// 16-byte bufio buffer every line spans multiple fragments.
func TestLineReaderSmallBuffer(t *testing.T) {
	input := "short\n" + strings.Repeat("x", 100) + "\nmid\n" + strings.Repeat("y", 50)
	lr := lineReader{br: bufio.NewReaderSize(strings.NewReader(input), 16)}
	want := []string{"short", strings.Repeat("x", 100), "mid", strings.Repeat("y", 50)}
	for i, w := range want {
		line, ok, err := lr.next()
		if err != nil || !ok {
			t.Fatalf("line %d: ok=%v err=%v", i, ok, err)
		}
		if string(line) != w {
			t.Fatalf("line %d = %q, want %q", i, line, w)
		}
	}
	if _, ok, err := lr.next(); ok || err != nil {
		t.Fatalf("expected clean EOF, ok=%v err=%v", ok, err)
	}
}

func TestLineReaderCRLF(t *testing.T) {
	lr := lineReader{br: bufio.NewReaderSize(strings.NewReader("a\r\nb\r\n"), 16)}
	for _, w := range []string{"a", "b"} {
		line, ok, err := lr.next()
		if err != nil || !ok || string(line) != w {
			t.Fatalf("line = %q ok=%v err=%v, want %q", line, ok, err, w)
		}
	}
}

// TestPasteLinesLongerThanKernelBuffer pushes lines past the pooled reader's
// buffer size so the scratch-accumulation path runs in a real paste.
func TestPasteLinesLongerThanKernelBuffer(t *testing.T) {
	long1 := strings.Repeat("a", kernelReadBuf+kernelReadBuf/2)
	long2 := strings.Repeat("b", 2*kernelReadBuf+17)
	var out bytes.Buffer
	rows, err := Paste(&out, Options{},
		strings.NewReader(long1+"\nshort1\n"),
		strings.NewReader(long2+"\nshort2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Fatalf("rows = %d", rows)
	}
	want := long1 + "\t" + long2 + "\nshort1\tshort2\n"
	if out.String() != want {
		t.Fatalf("long-line paste corrupted output (len %d, want %d)", out.Len(), len(want))
	}
}

// TestPasteEmptySources covers the empty-file cases: all-empty, and empty
// beside non-empty under both ragged modes.
func TestPasteEmptySources(t *testing.T) {
	var out bytes.Buffer
	rows, err := Paste(&out, Options{}, strings.NewReader(""), strings.NewReader(""))
	if err != nil || rows != 0 || out.Len() != 0 {
		t.Fatalf("all-empty: rows=%d out=%q err=%v", rows, out.String(), err)
	}

	out.Reset()
	if _, err := Paste(&out, Options{}, strings.NewReader(""), strings.NewReader("a\n")); err == nil {
		t.Fatal("strict mode accepted empty beside non-empty")
	}

	out.Reset()
	rows, err = Paste(&out, Options{AllowRagged: true},
		strings.NewReader(""), strings.NewReader("a\nb\n"))
	if err != nil || rows != 2 {
		t.Fatalf("ragged empty: rows=%d err=%v", rows, err)
	}
	if out.String() != "\ta\n\tb\n" {
		t.Fatalf("ragged empty output: %q", out.String())
	}
}

// TestPasteUnterminatedFinalLine keeps bufio.Scanner's semantics: a missing
// trailing newline still counts as a row, and output is normalised to end
// with a newline.
func TestPasteUnterminatedFinalLine(t *testing.T) {
	var out bytes.Buffer
	rows, err := Paste(&out, Options{},
		strings.NewReader("a\nb"), strings.NewReader("1\n2"))
	if err != nil || rows != 2 {
		t.Fatalf("rows=%d err=%v", rows, err)
	}
	if out.String() != "a\t1\nb\t2\n" {
		t.Fatalf("output: %q", out.String())
	}
}

func TestCountRowsEdgeCases(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		content string
		want    int
	}{
		{"", 0},
		{"a", 1},
		{"a\n", 1},
		{"a\nb", 2},
		{"a\nb\n", 2},
		{strings.Repeat("x", kernelReadBuf+3) + "\n" + strings.Repeat("y", kernelReadBuf), 2},
	}
	for i, tc := range cases {
		p := writeFile(t, dir, fmt.Sprintf("c%d.txt", i), tc.content)
		if n, err := CountRows(p); err != nil || n != tc.want {
			t.Fatalf("case %d: CountRows=%d err=%v, want %d", i, n, err, tc.want)
		}
	}
}

// TestPasteAllocsPerRow proves the kernel's zero-allocation claim: past
// warm-up, a paste allocates O(sources) per call, not O(rows).
func TestPasteAllocsPerRow(t *testing.T) {
	const rows, nSrcs = 4096, 8
	col := strings.Repeat("0.123456\n", rows)
	var out bytes.Buffer
	out.Grow(nSrcs * len(col) * 2)
	allocs := testing.AllocsPerRun(10, func() {
		srcs := make([]io.Reader, nSrcs)
		for i := range srcs {
			srcs[i] = strings.NewReader(col)
		}
		out.Reset()
		n, err := Paste(&out, Options{}, srcs...)
		if err != nil || n != rows {
			t.Fatalf("rows=%d err=%v", n, err)
		}
	})
	// Per run: source readers + the srcs/lines/lineReader slices — all
	// O(sources). Budget far below one alloc per row.
	if allocs > 64 {
		t.Fatalf("paste of %d rows allocated %.0f times per run; kernel is not allocation-free", rows, allocs)
	}
}

package tabular

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPasteTwoColumns(t *testing.T) {
	var out strings.Builder
	rows, err := Paste(&out, Options{},
		strings.NewReader("a\nb\nc\n"),
		strings.NewReader("1\n2\n3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 {
		t.Fatalf("rows = %d", rows)
	}
	if out.String() != "a\t1\nb\t2\nc\t3\n" {
		t.Fatalf("output: %q", out.String())
	}
}

func TestPasteCustomDelimiter(t *testing.T) {
	var out strings.Builder
	_, err := Paste(&out, Options{Delimiter: ","},
		strings.NewReader("x\n"), strings.NewReader("y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x,y\n" {
		t.Fatalf("output: %q", out.String())
	}
}

func TestPasteRaggedRejectedByDefault(t *testing.T) {
	var out strings.Builder
	_, err := Paste(&out, Options{},
		strings.NewReader("a\nb\n"), strings.NewReader("1\n"))
	if err == nil {
		t.Fatal("ragged paste accepted")
	}
}

func TestPasteRaggedAllowed(t *testing.T) {
	var out strings.Builder
	rows, err := Paste(&out, Options{AllowRagged: true},
		strings.NewReader("a\nb\n"), strings.NewReader("1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rows != 2 || out.String() != "a\t1\nb\t\n" {
		t.Fatalf("rows=%d output=%q", rows, out.String())
	}
}

func TestPasteNoSources(t *testing.T) {
	var out strings.Builder
	if _, err := Paste(&out, Options{}); err == nil {
		t.Fatal("empty paste accepted")
	}
}

func TestPasteSingleSourceIsCopy(t *testing.T) {
	var out strings.Builder
	rows, err := Paste(&out, Options{}, strings.NewReader("p\nq\n"))
	if err != nil || rows != 2 || out.String() != "p\nq\n" {
		t.Fatalf("rows=%d out=%q err=%v", rows, out.String(), err)
	}
}

func TestPasteFilesAndHelpers(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.txt", "r1\nr2\n")
	b := writeFile(t, dir, "b.txt", "s1\ns2\n")
	dst := filepath.Join(dir, "out", "pasted.tsv")
	rows, err := PasteFiles(dst, Options{}, a, b)
	if err != nil || rows != 2 {
		t.Fatalf("rows=%d err=%v", rows, err)
	}
	if n, err := CountRows(dst); err != nil || n != 2 {
		t.Fatalf("CountRows=%d err=%v", n, err)
	}
	if n, err := CountColumns(dst, Options{}); err != nil || n != 2 {
		t.Fatalf("CountColumns=%d err=%v", n, err)
	}
	got, err := readAll(dst, Options{})
	if err != nil || len(got) != 2 || got[0][0] != "r1" || got[1][1] != "s2" {
		t.Fatalf("ReadAll=%v err=%v", got, err)
	}
}

func TestPasteFilesMissingSource(t *testing.T) {
	dir := t.TempDir()
	if _, err := PasteFiles(filepath.Join(dir, "o"), Options{}, filepath.Join(dir, "nope")); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := PasteFiles(filepath.Join(dir, "o"), Options{}); err == nil {
		t.Fatal("no sources accepted")
	}
}

func TestWriteColumnRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "col", "c.txt")
	if err := WriteColumn(p, []string{"1", "2", "3"}); err != nil {
		t.Fatal(err)
	}
	rows, err := readAll(p, Options{})
	if err != nil || len(rows) != 3 || rows[2][0] != "3" {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
}

func TestCountColumnsEmptyFile(t *testing.T) {
	dir := t.TempDir()
	p := writeFile(t, dir, "empty.txt", "")
	if n, err := CountColumns(p, Options{}); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestPlanPasteSinglePhaseWhenUnderFanIn(t *testing.T) {
	plan, err := PlanPaste([]string{"a", "b", "c"}, "final", "work", 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Phases != 1 || len(plan.Tasks) != 1 {
		t.Fatalf("plan: %+v", plan)
	}
	if plan.Tasks[0].Output != "final" {
		t.Fatalf("final output: %s", plan.Tasks[0].Output)
	}
}

func TestPlanPasteTwoPhase(t *testing.T) {
	inputs := make([]string, 20)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("in%02d", i)
	}
	plan, err := PlanPaste(inputs, "final", "work", 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Phases != 2 {
		t.Fatalf("phases = %d", plan.Phases)
	}
	if got := len(phaseTasks(plan, 0)); got != 3 { // ceil(20/8)
		t.Fatalf("phase-0 tasks = %d", got)
	}
	if got := len(phaseTasks(plan, 1)); got != 1 {
		t.Fatalf("phase-1 tasks = %d", got)
	}
	if plan.MaxConcurrentFiles() > 9 {
		t.Fatalf("fan-in violated: %d", plan.MaxConcurrentFiles())
	}
}

func TestPlanPasteValidation(t *testing.T) {
	if _, err := PlanPaste(nil, "f", "w", 8); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if _, err := PlanPaste([]string{"a"}, "f", "w", 1); err == nil {
		t.Fatal("fan-in 1 accepted")
	}
}

func TestPlanCoversAllInputsExactlyOnce(t *testing.T) {
	// Property: for any input count and fan-in, every input appears exactly
	// once in phase 0 (or the single final task), and every phase-p>0 source
	// is a phase-(p-1) output.
	f := func(nRaw, fanRaw uint8) bool {
		n := int(nRaw)%200 + 1
		fan := int(fanRaw)%14 + 2
		inputs := make([]string, n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("in%03d", i)
		}
		plan, err := PlanPaste(inputs, "final", "work", fan)
		if err != nil {
			return false
		}
		seen := map[string]int{}
		outputs := map[string]bool{}
		for _, task := range plan.Tasks {
			if len(task.Sources) > fan {
				return false
			}
			if outputs[task.Output] {
				return false // duplicate output
			}
			outputs[task.Output] = true
			for _, s := range task.Sources {
				seen[s]++
			}
		}
		for _, in := range inputs {
			if seen[in] != 1 {
				return false
			}
		}
		// Every non-original source must be produced by some task.
		orig := map[string]bool{}
		for _, in := range inputs {
			orig[in] = true
		}
		for _, task := range plan.Tasks {
			for _, s := range task.Sources {
				if !orig[s] && !outputs[s] {
					return false
				}
			}
		}
		return plan.Final == "final"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteTwoPhasePlanEndToEnd(t *testing.T) {
	dir := t.TempDir()
	const nFiles, nRows = 20, 10
	inputs := make([]string, nFiles)
	for i := range inputs {
		cells := make([]string, nRows)
		for r := range cells {
			cells[r] = fmt.Sprintf("f%d_r%d", i, r)
		}
		inputs[i] = filepath.Join(dir, fmt.Sprintf("in%02d.txt", i))
		if err := WriteColumn(inputs[i], cells); err != nil {
			t.Fatal(err)
		}
	}
	final := filepath.Join(dir, "final.tsv")
	work := filepath.Join(dir, "work")
	plan, err := PlanPaste(inputs, final, work, 8)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := plan.Execute(context.Background(), ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rows != nRows {
		t.Fatalf("rows = %d", rows)
	}
	got, err := readAll(final, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nRows || len(got[0]) != nFiles {
		t.Fatalf("shape = %dx%d, want %dx%d", len(got), len(got[0]), nRows, nFiles)
	}
	// Column order must be preserved across phases.
	for i := 0; i < nFiles; i++ {
		if got[3][i] != fmt.Sprintf("f%d_r3", i) {
			t.Fatalf("column %d misplaced: %s", i, got[3][i])
		}
	}
	// Intermediates removed by default.
	if entries, _ := os.ReadDir(work); len(entries) != 0 {
		t.Fatalf("intermediates left: %d", len(entries))
	}
}

func TestExecuteKeepsIntermediatesWhenAsked(t *testing.T) {
	dir := t.TempDir()
	inputs := make([]string, 5)
	for i := range inputs {
		inputs[i] = filepath.Join(dir, fmt.Sprintf("i%d", i))
		if err := WriteColumn(inputs[i], []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := PlanPaste(inputs, filepath.Join(dir, "final"), filepath.Join(dir, "work"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), ExecOptions{Parallelism: 2, KeepIntermediates: true}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "work"))
	if len(entries) == 0 {
		t.Fatal("no intermediates kept")
	}
}

func TestExecutePropagatesErrors(t *testing.T) {
	dir := t.TempDir()
	plan, err := PlanPaste([]string{filepath.Join(dir, "missing")}, filepath.Join(dir, "f"), dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), ExecOptions{}); err == nil {
		t.Fatal("missing input did not fail execution")
	}
}

// readAll reads a delimited file fully into rows of fields. Rows of any
// byte length parse (pooled lineReader, no Scanner line-length cap).
func readAll(path string, opts Options) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := getReader(f)
	defer putReader(br)
	lr := lineReader{br: br}
	var rows [][]string
	for {
		line, ok, err := lr.next()
		if err != nil {
			return rows, err
		}
		if !ok {
			return rows, nil
		}
		rows = append(rows, strings.Split(string(line), opts.delimiter()))
	}
}

package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// timed names the table columns whose cells are wall-clock measurements, by
// a phrase of their header: they differ from run to run whatever the seed.
var timed = []string{"wall time", "throughput"}

// stamp is the generated-at time in the report's first line.
var stamp = regexp.MustCompile(`generated [^)]*\)`)

// masked returns md with the generated-at stamp and every cell of a timed
// column replaced by "~", so that two reports of one seed compare equal.
func masked(md string) string {
	lines := strings.Split(md, "\n")
	var cols []bool // the timed columns of the table being read, from its header row
	for i, line := range lines {
		if !strings.HasPrefix(line, "|") {
			cols = nil
			continue
		}
		cells := strings.Split(line, "|")
		if cols == nil {
			cols = make([]bool, len(cells))
			for j, cell := range cells {
				for _, phrase := range timed {
					cols[j] = cols[j] || strings.Contains(cell, phrase)
				}
			}
			continue
		}
		for j := range cells {
			if j < len(cols) && cols[j] {
				cells[j] = " ~ "
			}
		}
		lines[i] = strings.Join(cells, "|")
	}
	lines[0] = stamp.ReplaceAllString(lines[0], "generated ~)")
	return strings.Join(lines, "\n")
}

// TestResultsRawReproduces regenerates the committed results_raw.md — every
// experiment at full scale, seed 2021 — and requires the same bytes once the
// timing cells and the generated-at stamp are masked: every seeded figure,
// table and chart reproduces exactly.
func TestResultsRawReproduces(t *testing.T) {
	want, err := os.ReadFile("../../results_raw.md")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report(&got, "all", "full", 2021); err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(masked(got.String()), "\n"), strings.Split(masked(string(want)), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d differs from results_raw.md:\ngot  %s\nwant %s", i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("report has %d lines, results_raw.md %d", len(g), len(w))
	}
}

// TestMaskedHidesOnlyTimings: the mask leaves untimed cells alone.
func TestMaskedHidesOnlyTimings(t *testing.T) {
	in := "# Experiment results (full scale, seed 1, generated 2026-01-02T03:04:05Z)\n\n" +
		"| policy | ingest throughput (items/s) | selectivity |\n| --- | --- | --- |\n| a | 123 | 0.5 |\n\n" +
		"| n | checkpoints |\n| --- | --- |\n| 1 | 42 |\n"
	want := "# Experiment results (full scale, seed 1, generated ~)\n\n" +
		"| policy | ingest throughput (items/s) | selectivity |\n| --- | ~ | --- |\n| a | ~ | 0.5 |\n\n" +
		"| n | checkpoints |\n| --- | --- |\n| 1 | 42 |\n"
	if got := masked(in); got != want {
		t.Fatalf("masked:\n%s\nwant:\n%s", got, want)
	}
}

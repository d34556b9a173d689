package tabular

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestPasteSplitRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	iter := 0
	f := func(colsRaw, rowsRaw uint8) bool {
		iter++
		cols := int(colsRaw)%6 + 1
		rows := int(rowsRaw)%20 + 1
		sub := filepath.Join(dir, fmt.Sprintf("case%d", iter))
		inputs := make([]string, cols)
		for c := range inputs {
			cells := make([]string, rows)
			for r := range cells {
				cells[r] = fmt.Sprintf("v%d_%d", c, r)
			}
			inputs[c] = filepath.Join(sub, fmt.Sprintf("i%d", c))
			if err := WriteColumn(inputs[c], cells); err != nil {
				return false
			}
		}
		matrix := filepath.Join(sub, "m.tsv")
		if _, err := PasteFiles(matrix, Options{}, inputs...); err != nil {
			return false
		}
		// Split the matrix back on tabs: column c must be input c, byte
		// for byte.
		data, err := os.ReadFile(matrix)
		if err != nil {
			return false
		}
		split := make([]string, cols)
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if line == "" {
				continue
			}
			cells := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
			if len(cells) != cols {
				return false
			}
			for c, cell := range cells {
				split[c] += cell + "\n"
			}
		}
		for c := range inputs {
			b, err := os.ReadFile(inputs[c])
			if err != nil || split[c] != string(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

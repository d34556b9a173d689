package census

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairflow/internal/expt"
)

func smallConfig() Config {
	return Config{Features: 40, Samples: 300, LatentFactors: 3, Noise: 0.3, Seed: 7}
}

func TestGenerateShape(t *testing.T) {
	d, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Features() != 40 || d.Samples() != 300 {
		t.Fatalf("shape = %d×%d", d.Samples(), d.Features())
	}
	if len(d.Block) != 40 || len(d.FeatureNames) != 40 {
		t.Fatal("metadata length mismatch")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Features: 0, Samples: 10}); err == nil {
		t.Fatal("zero features accepted")
	}
	if _, err := Generate(Config{Features: 5, Samples: 1}); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(smallConfig())
	b, _ := Generate(smallConfig())
	for s := 0; s < a.Samples(); s += 37 {
		for f := 0; f < a.Features(); f++ {
			if a.X[s][f] != b.X[s][f] {
				t.Fatalf("same seed diverged at (%d,%d)", s, f)
			}
		}
	}
	cfg := smallConfig()
	cfg.Seed = 8
	c, _ := Generate(cfg)
	if c.X[0][0] == a.X[0][0] && c.X[1][1] == a.X[1][1] {
		t.Fatal("different seeds produced identical data")
	}
}

func TestBlockNamesEmbeddedInFeatureNames(t *testing.T) {
	d, _ := Generate(smallConfig())
	for f, name := range d.FeatureNames {
		if !strings.HasPrefix(name, blockNames[d.Block[f]]) {
			t.Fatalf("feature %d name %q does not match block %d", f, name, d.Block[f])
		}
	}
}

func TestWithinBlockCorrelationExceedsCrossBlock(t *testing.T) {
	cfg := smallConfig()
	cfg.Samples = 1500
	d, _ := Generate(cfg)
	cols := make([][]float64, d.Features())
	for f := range cols {
		cols[f] = make([]float64, d.Samples())
		for s, row := range d.X {
			cols[f][s] = row[f]
		}
	}
	var within, cross []float64
	for i := 0; i < d.Features(); i++ {
		for j := i + 1; j < d.Features(); j += 3 {
			r := math.Abs(expt.Pearson(cols[i], cols[j]))
			if d.Block[i] == d.Block[j] {
				within = append(within, r)
			} else {
				cross = append(cross, r)
			}
		}
	}
	mw, mc := expt.Mean(within), expt.Mean(cross)
	if mw < 3*mc {
		t.Fatalf("within-block |r|=%.3f not ≫ cross-block |r|=%.3f", mw, mc)
	}
	if mw < 0.2 {
		t.Fatalf("within-block correlation too weak: %.3f", mw)
	}
}

func TestWriteTSV(t *testing.T) {
	cfg := smallConfig()
	cfg.Features, cfg.Samples = 4, 5
	d, _ := Generate(cfg)
	p := filepath.Join(t.TempDir(), "census.tsv")
	if err := d.WriteTSV(p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(rows) != 6 { // header + 5 samples
		t.Fatalf("rows = %d", len(rows))
	}
	if header := strings.Split(rows[0], "\t"); len(header) != 4 || header[0] != d.FeatureNames[0] {
		t.Fatalf("header = %v", header)
	}
}

func TestReadTSVRoundTrip(t *testing.T) {
	cfg := smallConfig()
	cfg.Features, cfg.Samples = 6, 9
	d, _ := Generate(cfg)
	p := filepath.Join(t.TempDir(), "t.tsv")
	if err := d.WriteTSV(p); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.Features() != 6 || back.Samples() != 9 {
		t.Fatalf("shape %d×%d", back.Samples(), back.Features())
	}
	if back.FeatureNames[2] != d.FeatureNames[2] {
		t.Fatalf("names: %v", back.FeatureNames)
	}
	// Values survive the g-format round trip to ~6 significant digits.
	if math.Abs(back.X[3][4]-d.X[3][4]) > 1e-4*math.Max(1, math.Abs(d.X[3][4])) {
		t.Fatalf("value drift: %v vs %v", back.X[3][4], d.X[3][4])
	}
}

func TestReadTSVErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.tsv")
	os.WriteFile(empty, nil, 0o644)
	if _, err := ReadTSV(empty); err == nil {
		t.Fatal("empty file accepted")
	}
	headerOnly := filepath.Join(dir, "h.tsv")
	os.WriteFile(headerOnly, []byte("a\tb\n"), 0o644)
	if _, err := ReadTSV(headerOnly); err == nil {
		t.Fatal("header-only file accepted")
	}
	ragged := filepath.Join(dir, "r.tsv")
	os.WriteFile(ragged, []byte("a\tb\n1\t2\n3\n"), 0o644)
	if _, err := ReadTSV(ragged); err == nil {
		t.Fatal("ragged file accepted")
	}
	notNum := filepath.Join(dir, "n.tsv")
	os.WriteFile(notNum, []byte("a\nx\n"), 0o644)
	if _, err := ReadTSV(notNum); err == nil {
		t.Fatal("non-numeric cell accepted")
	}
	if _, err := ReadTSV(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Fatal("missing file accepted")
	}
}

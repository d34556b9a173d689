// Package census generates the synthetic stand-in for the 2019 American
// Community Survey table the paper's iRF-LOOP experiment uses (Section V-D:
// 1606 demographic/socio-economic/housing features for 3220 counties,
// fetched with the R tidycensus package). The real download is a
// network/data gate; what the experiment depends on is the table's shape —
// feature count, sample count, and a correlated block structure that gives
// the all-to-all network non-trivial edges — which this generator controls
// directly and reproducibly.
package census

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fairflow/internal/expt"
)

// Block labels mirror the ACS data-profile families.
var blockNames = []string{"demographic", "social", "economic", "housing"}

// Config sizes the synthetic table.
type Config struct {
	// Features is the number of columns (paper: 1606).
	Features int
	// Samples is the number of rows/counties (paper: 3220).
	Samples int
	// LatentFactors is the number of hidden drivers per block; features in
	// a block are noisy linear mixtures of its factors, which is what makes
	// iRF-LOOP's feature-to-feature predictions informative.
	LatentFactors int
	// Noise is the residual standard deviation added to each feature.
	Noise float64
	// Seed drives all randomness.
	Seed int64
}

// Dataset is a generated feature table.
type Dataset struct {
	// FeatureNames has one entry per column, e.g. "economic_0012".
	FeatureNames []string
	// Block[i] is the block index of feature i.
	Block []int
	// X is sample-major: X[s][f] is feature f of sample s.
	X [][]float64
}

// Features returns the number of columns.
func (d *Dataset) Features() int { return len(d.FeatureNames) }

// Samples returns the number of rows.
func (d *Dataset) Samples() int { return len(d.X) }

// Generate builds a synthetic dataset. Features are partitioned evenly into
// four blocks; each block has its own latent factors; each feature is a
// random mixture of its block's factors plus noise, so within-block
// correlations are strong and cross-block correlations are near zero.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.Features < 1 || cfg.Samples < 2 {
		return nil, fmt.Errorf("census: need ≥1 feature and ≥2 samples, got %d×%d", cfg.Features, cfg.Samples)
	}
	if cfg.LatentFactors < 1 {
		cfg.LatentFactors = 1
	}
	rng := expt.NewRNG(cfg.Seed)

	nBlocks := len(blockNames)
	// Latent factors: per block, LatentFactors independent standard-normal
	// series over samples.
	factors := make([][][]float64, nBlocks)
	for b := range factors {
		factors[b] = make([][]float64, cfg.LatentFactors)
		for k := range factors[b] {
			series := make([]float64, cfg.Samples)
			for s := range series {
				series[s] = rng.NormFloat64()
			}
			factors[b][k] = series
		}
	}

	d := &Dataset{
		FeatureNames: make([]string, cfg.Features),
		Block:        make([]int, cfg.Features),
		X:            make([][]float64, cfg.Samples),
	}
	for s := range d.X {
		d.X[s] = make([]float64, cfg.Features)
	}

	for f := 0; f < cfg.Features; f++ {
		b := f * nBlocks / cfg.Features
		if b >= nBlocks {
			b = nBlocks - 1
		}
		d.Block[f] = b
		d.FeatureNames[f] = fmt.Sprintf("%s_%04d", blockNames[b], f)
		weights := make([]float64, cfg.LatentFactors)
		for k := range weights {
			weights[k] = rng.NormFloat64()
		}
		for s := 0; s < cfg.Samples; s++ {
			var v float64
			for k, w := range weights {
				v += w * factors[b][k][s]
			}
			d.X[s][f] = v + rng.NormFloat64()*cfg.Noise
		}
	}
	return d, nil
}

// ReadTSV loads a dataset from a tab-separated table with a header row of
// feature names — the entry point for running iRF-LOOP on external data.
// Block assignments are not recoverable from a plain table and are set to 0.
func ReadTSV(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("census: %s is empty", path)
	}
	names := strings.Split(sc.Text(), "\t")
	d := &Dataset{
		FeatureNames: names,
		Block:        make([]int, len(names)),
	}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != len(names) {
			return nil, fmt.Errorf("census: %s line %d has %d fields, want %d", path, line, len(fields), len(names))
		}
		row := make([]float64, len(fields))
		for i, cell := range fields {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("census: %s line %d field %d: %w", path, line, i, err)
			}
			row[i] = v
		}
		d.X = append(d.X, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(d.X) == 0 {
		return nil, fmt.Errorf("census: %s has a header but no rows", path)
	}
	return d, nil
}

// WriteTSV writes the dataset as a tab-separated table with a header row.
func (d *Dataset) WriteTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, name := range d.FeatureNames {
		if i > 0 {
			w.WriteByte('\t')
		}
		w.WriteString(name)
	}
	w.WriteByte('\n')
	for _, row := range d.X {
		for i, v := range row {
			if i > 0 {
				w.WriteByte('\t')
			}
			w.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
